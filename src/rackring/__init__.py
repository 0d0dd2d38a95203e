"""Finite racks and quandles: structure, canonical forms, Burnside rings.

The public names below load from their home modules on first use (PEP 562),
so `import rackring` compiles no submodule; a `rackring` command loads what
the CLI imports (`burnside`, `canonical`, `structure`, `racks` and theirs) and
`groups`, `enumeration`, `marks` and `reports` only if it runs them.
"""

import importlib

_HOMES = {
    "burnside": """BurnsideElement BurnsideRing ClassEntry ClassRegistry format_element parse_element
        render_element""",
    "canonical": """are_isomorphic automorphism_group automorphisms canonical_form canonical_key
        find_isomorphism key_order key_table""",
    "cycles": "CycleVector",
    "enumeration": "EnumerationFilter count enumerate_racks enumerate_racks_naive populate_registry",
    "groups": """CrossedAction CrossedGSet FinGroup check_coset_pair conjugation_class_quandle
        conjugation_quandle coset_rack crossed_product crossed_sum crossed_to_rack cyclic_group
        diagonal_product_fixed_group dihedral_group direct_product_group format_group
        group_from_permutations is_equivalence parse_group parse_sl2 rack_to_crossed special_linear_2
        symmetric_group transitive_crossed transitive_crossed_iso""",
    "marks": """MorphismCensus PresentedQuandle census colorings enumerate_morphisms format_presentation
        mark mark_matrix parse_presentation trefoil_presentation verify_triangular_recursion""",
    "perms": "Perm PermGroup centralizer_order_in_sym",
    "racks": """FormatError InvalidRackError RackTable ValidationReport associated_quandle cycle_rack
        dihedral disjoint_union format_rack inner_fixed_points is_ideal is_subrack load_rack parse_rack
        permutation_rack product save_rack trivial trivially_acting_part validate_table""",
    "structure": """DecompositionTree connected_parts decomposition_tree depth enumerate_decompositions
        enumerate_ideals inn_orbits inner_group irreducible_components is_connected is_homogeneous
        is_irreducible profile""",
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = sorted(_HOME_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
