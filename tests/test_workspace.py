"""Workspace loading: structural checks at load, canonical checks on demand."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rackring
from rackring import Perm, canonical_key, cycle_rack, dihedral, product, save_rack
from rackring import canonical
from rackring.burnside import BurnsideElement, BurnsideRing, ClassRegistry
from rackring.canonical import key_table, table_bytes
from rackring.cli import Workspace, _registry_line, main
from rackring.enumeration import EnumerationFilter, enumerate_racks
from rackring.racks import _significant_lines


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def recanonicalising_load(path):
    """The workspace loader as it was before loads became structural: every
    stored key is registered again, which runs one canonical search per class."""
    registry = ClassRegistry()
    ring = BurnsideRing(registry)
    for _, line in _significant_lines(Path(path, "registry.txt").read_text()):
        class_id, _, _, key_hex = line.split()
        key = bytes.fromhex(key_hex)
        assert registry.register(key_table(key)) == int(class_id)
        assert registry.entry(int(class_id)).key == key
        assert _registry_line(registry.entry(int(class_id))) == line
    for _, line in _significant_lines(Path(path, "products.txt").read_text()):
        tokens = line.split()
        left, right, *terms = (registry.by_key(bytes.fromhex(tok)).id for tok in tokens[:2] + tokens[4::2])
        coeffs = [int(tok) for tok in tokens[3::2]]
        ring.product_memo[(min(left, right), max(left, right))] = BurnsideElement(zip(terms, coeffs))
    return ring


@pytest.fixture()
def populated(capsys, tmp_path):
    """A workspace built through the CLI from the connected racks up to order
    6, three products, and the memoised products of a `mul`."""
    workspace = str(tmp_path / "data")
    connected = [r for n in range(1, 7) for r in enumerate_racks(EnumerationFilter(n, connected_only=True))]
    racks = [r.relabel(Perm(tuple(reversed(range(r.n))))) for r in connected]
    racks += [product(dihedral(3), dihedral(3)), product(dihedral(3), dihedral(5)), product(dihedral(5), cycle_rack(3))]
    for i, rack in enumerate(racks):
        path = tmp_path / f"{i}.rack"
        save_rack(rack, path)
        assert run(capsys, "--workspace", workspace, "burnside", str(path))[0] == 0
    x, y = tmp_path / "x.elem", tmp_path / "y.elem"
    x.write_text(f"1 {canonical_key(dihedral(3)).hex()}\n2 {canonical_key(cycle_rack(3)).hex()}\n")
    y.write_text(f"1 {canonical_key(dihedral(3)).hex()}\n1 {canonical_key(dihedral(5)).hex()}\n")
    assert run(capsys, "--workspace", workspace, "mul", str(x), str(y))[0] == 0
    return workspace


def test_structural_load_matches_recanonicalising_load(populated):
    ring = Workspace(populated).load_ring()
    reference = recanonicalising_load(populated)
    assert len(ring.registry) == len(reference.registry) == 18
    for entry, expected in zip(ring.registry, reference.registry):
        assert (entry.id, entry.key, entry.order, entry.quandle) == (
            expected.id, expected.key, expected.order, expected.quandle,
        )
        assert entry.table == expected.table
    assert len(ring.product_memo) == 4
    assert ring.product_memo == reference.product_memo


def test_plain_load_runs_no_canonical_search(capsys, monkeypatch, populated):
    class Searched(Exception):
        pass

    def search(table):
        raise Searched

    monkeypatch.setattr(canonical, "_canonical_search", search)
    ring = Workspace(populated).load_ring()
    assert len(ring.registry) == 18
    assert run(capsys, "--workspace", populated, "registry")[0] == 0
    with pytest.raises(Searched):
        main(["--workspace", populated, "registry", "--check"])


def test_registry_check_matches_plain_listing(capsys, populated):
    for extra in ([], ["--json"]):
        plain = run(capsys, "--workspace", populated, *extra, "registry")
        checked = run(capsys, "--workspace", populated, *extra, "registry", "--check")
        assert plain[0] == 0 and checked == plain


def test_registry_check_names_a_non_canonical_key(capsys, tmp_path):
    workspace = str(tmp_path / "data")
    path = tmp_path / "d3.rack"
    save_rack(dihedral(3), path)
    run(capsys, "--workspace", workspace, "burnside", str(path))
    relabelled = table_bytes(key_table(canonical_key(dihedral(5))).relabel(Perm((1, 2, 3, 4, 0))))
    assert relabelled != canonical_key(dihedral(5))
    registry_file = Path(workspace, "registry.txt")
    text = registry_file.read_text() + f"1 5 cq {relabelled.hex()}\n"
    registry_file.write_text(text)

    code, out, _ = run(capsys, "--workspace", workspace, "registry")
    assert code == 0 and out.splitlines()[1] == f"1 5 cq {relabelled.hex()}"
    code, out, err = run(capsys, "--workspace", workspace, "registry", "--check")
    assert code == 1 and out == ""
    assert err.startswith("error: line 2: ") and "Traceback" not in err
    assert registry_file.read_text() == text


@pytest.mark.parametrize(
    "terms, message",
    [
        ("0 {d3xd3}", "product coefficients must be positive"),
        ("1 {d3xd3} -1 {c3}", "product coefficients must be positive"),
        ("7 {d3xd3}", "product terms do not add up to order 9"),
        ("2 {c3}", "product terms do not add up to order 9"),
        ("3 {c3}", "a product of quandles has a non-quandle term"),
    ],
)
def test_plain_load_rejects_a_product_line_that_cannot_hold(capsys, tmp_path, terms, message):
    workspace = str(tmp_path / "data")
    classes = {"d3": dihedral(3), "d3xd3": product(dihedral(3), dihedral(3)), "c3": cycle_rack(3)}
    keys = {name: canonical_key(r).hex() for name, r in classes.items()}
    for name in ("d3", "c3"):
        save_rack(classes[name], tmp_path / f"{name}.rack")
        assert run(capsys, "--workspace", workspace, "burnside", str(tmp_path / f"{name}.rack"))[0] == 0
    x = tmp_path / "x.elem"
    x.write_text(f"1 {keys['d3']}\n")
    assert run(capsys, "--workspace", workspace, "mul", str(x), str(x))[0] == 0
    products_file = Path(workspace, "products.txt")
    assert products_file.read_text() == f"{keys['d3']} {keys['d3']} = 1 {keys['d3xd3']}\n"
    # the edited line follows a comment, so it is line 2
    products_file.write_text(f"# edited\n{keys['d3']} {keys['d3']} = {terms.format(**keys)}\n")
    before = {name: Path(workspace, name).read_bytes() for name in ("registry.txt", "products.txt")}
    code, out, err = run(capsys, "--workspace", workspace, "mul", str(x), str(x))
    assert code == 1 and out == ""
    assert err == f"error: line 2: {message}\n"
    assert {name: Path(workspace, name).read_bytes() for name in before} == before


def test_load_rejects_a_second_line_for_the_same_product(capsys, tmp_path):
    # `d3 d3 = 3 d3` adds up on its own, so only the repeat can catch it
    workspace = str(tmp_path / "data")
    save_rack(dihedral(3), tmp_path / "d3.rack")
    assert run(capsys, "--workspace", workspace, "burnside", str(tmp_path / "d3.rack"))[0] == 0
    d3 = canonical_key(dihedral(3)).hex()
    x = tmp_path / "x.elem"
    x.write_text(f"1 {d3}\n")
    assert run(capsys, "--workspace", workspace, "mul", str(x), str(x))[0] == 0
    products_file = Path(workspace, "products.txt")
    products_file.write_text(products_file.read_text() + f"{d3} {d3} = 3 {d3}\n")
    before = {name: Path(workspace, name).read_bytes() for name in ("registry.txt", "products.txt")}
    for command in (["mul", str(x), str(x)], ["registry", "--check"]):
        code, out, err = run(capsys, "--workspace", workspace, *command)
        assert code == 1 and out == ""
        assert err == "error: line 2: duplicate product of classes 0 and 0\n"
    assert {name: Path(workspace, name).read_bytes() for name in before} == before


def test_concurrent_burnside_processes_get_stable_ids(tmp_path):
    workspace = str(tmp_path / "data")
    files = []
    for name, rack in (("d3", dihedral(3)), ("d5", dihedral(5))):
        save_rack(rack, tmp_path / f"{name}.rack")
        files.append(str(tmp_path / f"{name}.rack"))
    env = dict(os.environ, PYTHONPATH=str(Path(rackring.__file__).parents[1]))
    argv = [sys.executable, "-m", "rackring.cli", "--workspace", workspace, "burnside"]

    def burnside_in_parallel():
        procs = [subprocess.Popen([*argv, f], env=env, stdout=subprocess.PIPE) for f in files]
        return [(proc.communicate()[0], proc.returncode) for proc in procs]

    first = burnside_in_parallel()
    assert [code for _, code in first] == [0, 0]
    registry_file = Path(workspace, "registry.txt")
    listing = registry_file.read_text()
    ids_and_keys = sorted(line.split()[::3] for line in listing.splitlines())
    expected = {canonical_key(dihedral(3)).hex(), canonical_key(dihedral(5)).hex()}
    assert [i for i, _ in ids_and_keys] == ["0", "1"] and {k for _, k in ids_and_keys} == expected

    assert burnside_in_parallel() == first
    assert registry_file.read_text() == listing


@pytest.mark.parametrize("lineno, old, new", [(2, "1 {d3xc3}", "1 {d3xd3}"), (3, "3 {c3}", "3 {d3}")])
def test_registry_check_names_a_product_line_that_differs(capsys, tmp_path, lineno, old, new):
    # each edit swaps a term for another registered class of the same order,
    # so every check of a plain load still holds
    workspace = str(tmp_path / "data")
    d3, c3 = dihedral(3), cycle_rack(3)
    racks = {"d3": d3, "c3": c3, "d3xd3": product(d3, d3), "d3xc3": product(d3, c3)}
    keys = {name: canonical_key(r).hex() for name, r in racks.items()}
    for name in ("d3", "c3"):
        save_rack(racks[name], tmp_path / f"{name}.rack")
        assert run(capsys, "--workspace", workspace, "burnside", str(tmp_path / f"{name}.rack"))[0] == 0
    x = tmp_path / "x.elem"
    x.write_text(f"1 {keys['d3']}\n1 {keys['c3']}\n")
    assert run(capsys, "--workspace", workspace, "mul", str(x), str(x))[0] == 0
    products_file = Path(workspace, "products.txt")
    lines = products_file.read_text().splitlines()
    assert lines == [
        "{d3} {d3} = 1 {d3xd3}".format(**keys),
        "{d3} {c3} = 1 {d3xc3}".format(**keys),
        "{c3} {c3} = 3 {c3}".format(**keys),
    ]
    lines[lineno - 1] = lines[lineno - 1].replace(old.format(**keys), new.format(**keys))
    products_file.write_text("\n".join(lines) + "\n")
    before = {name: Path(workspace, name).read_bytes() for name in ("registry.txt", "products.txt")}

    code, out, _ = run(capsys, "--workspace", workspace, "registry")
    assert code == 0 and len(out.splitlines()) == 4
    code, out, err = run(capsys, "--workspace", workspace, "registry", "--check")
    assert code == 1 and out == ""
    assert err == f"error: line {lineno}: product differs from its recomputation\n"
    assert {name: Path(workspace, name).read_bytes() for name in before} == before


def test_registry_check_recomputes_every_product_of_a_clean_workspace(capsys, monkeypatch, populated):
    recomputed = []
    basis_product = BurnsideRing._basis_product

    def counting(ring, i, j):
        recomputed.append((i, j))
        return basis_product(ring, i, j)

    monkeypatch.setattr(BurnsideRing, "_basis_product", counting)
    memo = Workspace(populated).load_ring().product_memo
    assert len(memo) == 4 and not recomputed
    # `test_registry_check_matches_plain_listing` compares the outputs
    assert run(capsys, "--workspace", populated, "registry", "--check")[0] == 0
    assert sorted(recomputed) == sorted(memo)
