"""Lazy loading: the package exports its names on first use, and a command
imports `groups`, `enumeration`, `marks` and `reports` only if it runs them;
the modules the CLI imports load in every command."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rackring
from rackring import canonical_key, dihedral, format_presentation, save_rack, trefoil_presentation

# The public names of the package, by home module, as the eager `__init__` imported them.
PUBLIC = {
    "burnside": (
        "BurnsideElement", "BurnsideRing", "ClassEntry", "ClassRegistry", "format_element", "parse_element",
        "render_element",
    ),
    "canonical": (
        "are_isomorphic", "automorphism_group", "automorphisms", "canonical_form", "canonical_key",
        "find_isomorphism", "key_order", "key_table",
    ),
    "cycles": ("CycleVector",),
    "enumeration": ("EnumerationFilter", "count", "enumerate_racks", "enumerate_racks_naive", "populate_registry"),
    "groups": (
        "CrossedAction", "CrossedGSet", "FinGroup", "check_coset_pair", "conjugation_class_quandle",
        "conjugation_quandle", "coset_rack", "crossed_product", "crossed_sum", "crossed_to_rack", "cyclic_group",
        "diagonal_product_fixed_group", "dihedral_group", "direct_product_group", "format_group",
        "group_from_permutations", "is_equivalence", "parse_group", "parse_sl2", "rack_to_crossed",
        "special_linear_2", "symmetric_group", "transitive_crossed", "transitive_crossed_iso",
    ),
    "marks": (
        "MorphismCensus", "PresentedQuandle", "census", "colorings", "enumerate_morphisms", "format_presentation",
        "mark", "mark_matrix", "parse_presentation", "trefoil_presentation", "verify_triangular_recursion",
    ),
    "perms": ("Perm", "PermGroup", "centralizer_order_in_sym"),
    "racks": (
        "FormatError", "InvalidRackError", "RackTable", "ValidationReport", "associated_quandle", "cycle_rack",
        "dihedral", "disjoint_union", "format_rack", "inner_fixed_points", "is_ideal", "is_subrack", "load_rack",
        "parse_rack", "permutation_rack", "product", "save_rack", "trivial", "trivially_acting_part",
        "validate_table",
    ),
    "structure": (
        "DecompositionTree", "connected_parts", "decomposition_tree", "depth", "enumerate_decompositions",
        "enumerate_ideals", "inn_orbits", "inner_group", "irreducible_components", "is_connected", "is_homogeneous",
        "is_irreducible", "profile",
    ),
}

NEVER_AT_STARTUP = {"rackring.groups", "rackring.enumeration", "rackring.reports", "dataclasses"}


def test_every_public_name_is_its_home_module_object():
    assert sorted(rackring.__all__) == sorted(name for names in PUBLIC.values() for name in names)
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"rackring.{module}")
        for name in names:
            assert getattr(rackring, name) is getattr(home, name), name
            assert name in vars(rackring), name  # cached, so later lookups skip `__getattr__`
    assert set(rackring.__all__) <= set(dir(rackring))
    namespace = {}
    exec("from rackring import *", namespace)
    assert all(namespace[name] is getattr(rackring, name) for name in rackring.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        rackring.no_such_name


def python(tmp_path, *argv):
    env = dict(os.environ, PYTHONPATH=str(Path(rackring.__file__).parents[1]))
    env.pop("RACKRING_WORKSPACE", None)
    return subprocess.run([sys.executable, *argv], env=env, cwd=tmp_path, capture_output=True, text=True, check=True)


def imported_modules(tmp_path, *argv):
    """Modules a CLI command imports, read from `-X importtime` on stderr."""
    err = python(tmp_path, "-X", "importtime", "-m", "rackring.cli", "--json", "--workspace", "ws", *argv).stderr
    return {line.rsplit("|", 1)[1].strip() for line in err.splitlines() if line.startswith("import time:")}


def test_import_rackring_loads_no_submodule(tmp_path):
    out = python(tmp_path, "-c", "import rackring, sys; print(sorted(m for m in sys.modules if 'rackring' in m))")
    assert out.stdout.strip() == "['rackring']"


def test_commands_import_only_the_modules_they_run(tmp_path):
    save_rack(dihedral(3), tmp_path / "d3.rack")
    (tmp_path / "x.elem").write_text(f"1 {canonical_key(dihedral(3)).hex()}\n")
    (tmp_path / "trefoil.qpres").write_text(format_presentation(trefoil_presentation()))
    commands = [
        ["validate", "d3.rack"],
        ["burnside", "d3.rack"],
        ["registry"],
        ["mul", "x.elem", "x.elem"],
        ["marks", "d3.rack", "d3.rack"],
        ["color", "trefoil.qpres", "d3.rack"],
    ]
    for argv in commands:
        modules = imported_modules(tmp_path, *argv)
        assert "rackring.racks" in modules, argv  # the trace was read
        assert not modules & NEVER_AT_STARTUP, argv
        assert ("rackring.marks" in modules) == (argv[0] in ("marks", "color")), argv
    # `enumerate` and `crossed` load the one module of these three that they run
    for argv, needed, unused in (
        (["enumerate", "--order", "3"], "rackring.enumeration", {"rackring.groups", "rackring.marks"}),
        (["crossed", "d3.rack"], "rackring.groups", {"rackring.enumeration", "rackring.marks"}),
    ):
        modules = imported_modules(tmp_path, *argv)
        assert needed in modules, argv
        assert not modules & (unused | {"dataclasses"}), argv
