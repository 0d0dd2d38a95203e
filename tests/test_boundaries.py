"""Where the package calls its checking constructors.

`Perm(...)`, `RackTable(...)`, `FinGroup(...)` and `CrossedGSet(...)` check
their data.  What the package derives from checked data goes through the
unchecked `_wrap` of each type instead, so every value is checked once, where
it enters.  Each call of a checking constructor inside the package is listed
below with the reason it checks; a new call fails this test until it is
listed, so re-checks of derived data cannot creep back in.
"""

import ast
from pathlib import Path

import rackring

CHECKED = {"Perm", "RackTable", "FinGroup", "CrossedGSet"}

# (module file, enclosing function, constructor) -> why the data is checked there
ALLOWED = {
    ("canonical.py", "key_table", "RackTable"): "outside input: a key read from a registry or element file",
    ("groups.py", "parse_group", "FinGroup"): "outside input: a group file",
    ("racks.py", "parse_rack", "RackTable"): "outside input: a rack file",
    ("reports.py", "inner_crossed_variant_check", "CrossedGSet"): "a survey: the crossing over the inner group is what it tests",
}


def checked_constructor_calls():
    """(file, enclosing function, constructor) for every call by name in the package."""
    found = []

    def visit(node, scope, path):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id in CHECKED:
                found.append((path.name, scope or "<module>", child.func.id))
            visit(child, inner, path)

    for path in sorted(Path(rackring.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "", path)
    return found


def test_checked_constructors_are_called_only_where_listed():
    found = checked_constructor_calls()
    assert sorted(set(found)) == sorted(ALLOWED)
    assert len(found) == len(set(found))  # one call per listed site

