import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rackring
from rackring import (
    conjugation_quandle,
    cycle_rack,
    dihedral,
    disjoint_union,
    format_group,
    format_presentation,
    parse_element,
    permutation_rack,
    product,
    save_rack,
    symmetric_group,
    trefoil_presentation,
    trivial,
    Perm,
)
from rackring.burnside import MAX_PRODUCT_ORDER, ClassRegistry
from rackring.cli import main
from rackring.groups import MAX_CROSSED_GROUP_ORDER, crossed_to_rack, is_equivalence, rack_to_crossed


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def dih3_file(tmp_path):
    path = tmp_path / "dih3.rack"
    save_rack(dihedral(3), path)
    return str(path)


@pytest.fixture()
def workspace(tmp_path):
    return str(tmp_path / "data")


def test_validate(capsys, dih3_file, tmp_path):
    code, out, _ = run(capsys, "validate", dih3_file)
    assert code == 0
    assert out.strip() == "valid quandle, order 3"

    rack_path = tmp_path / "c2.rack"
    save_rack(cycle_rack(2), rack_path)
    code, out, _ = run(capsys, "validate", str(rack_path))
    assert code == 0
    assert out.strip() == "valid rack, order 2"


def test_validate_errors(capsys, tmp_path):
    missing = tmp_path / "missing.rack"
    code, _, err = run(capsys, "validate", str(missing))
    # an unreadable file is named, with no line number
    assert code == 1 and err == f"error: cannot read {missing}: No such file or directory\n"

    bad = tmp_path / "bad.rack"
    bad.write_text("rack 2\n1 0\n0 1\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1 and "not-self-distributive" in err

    garbled = tmp_path / "garbled.rack"
    garbled.write_text("rack 2\n0 1\nx y\n")
    code, _, err = run(capsys, "validate", str(garbled))
    assert code == 1 and "line 3" in err


def test_a_closed_output_pipe_exits_1_without_a_traceback(tmp_path, dih3_file):
    """stdout is a pipe whose reader has closed: the write fails with EPIPE."""
    env = dict(os.environ, PYTHONPATH=str(Path(rackring.__file__).parents[1]))
    group_file = tmp_path / "sym4.group"
    group_file.write_text(format_group(symmetric_group(4)))
    for argv in (["validate", dih3_file], ["--json", "validate", dih3_file], ["conj-quandle", str(group_file)]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "rackring.cli", "--workspace", str(tmp_path / "ws"), *argv],
                env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr


def test_files_that_are_not_utf8_are_named(capsys, tmp_path, workspace, dih3_file):
    rack_file = tmp_path / "latin1.rack"
    rack_file.write_bytes(b"rack 1\n\xff\n")
    code, out, err = run(capsys, "validate", str(rack_file))
    assert (code, out, err) == (1, "", f"error: cannot read {rack_file}: not UTF-8 (byte 7)\n")

    element_file = tmp_path / "latin1.elem"
    element_file.write_bytes(b"\xff")
    code, out, err = run(capsys, "--workspace", workspace, "mul", str(element_file), str(element_file))
    assert (code, out, err) == (1, "", f"error: cannot read {element_file}: not UTF-8 (byte 0)\n")
    assert not os.path.exists(workspace)

    run(capsys, "--workspace", workspace, "burnside", dih3_file)
    registry_file = os.path.join(workspace, "registry.txt")
    with open(registry_file, "ab") as fh:
        fh.write(b"\xff\n")
    size = os.path.getsize(registry_file)
    code, out, err = run(capsys, "--workspace", workspace, "registry")
    assert (code, out, err) == (1, "", f"error: cannot read {registry_file}: not UTF-8 (byte {size - 2})\n")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_analyze(capsys, dih3_file):
    code, out, _ = run(capsys, "analyze", dih3_file)
    assert code == 0
    lines = out.strip().splitlines()
    assert "order: 3" in lines
    assert "quandle: true" in lines
    assert "connected: true" in lines
    assert "depth: 0" in lines
    assert "profile: 1^1 2^1" in lines
    assert "sigma cycle type: 1^3" in lines


def test_analyze_json(capsys, dih3_file):
    code, out, _ = run(capsys, "--json", "analyze", dih3_file)
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 3
    assert report["connected"] is True
    assert report["orbit_sizes"] == [3]


def test_analyze_runs_one_automorphism_search(capsys, monkeypatch, tmp_path, dih3_file):
    from rackring import structure

    calls = []
    search = structure._canonical_search

    def counted(table):
        calls.append(table)
        return search(table)

    monkeypatch.setattr(structure, "_canonical_search", counted)
    path = tmp_path / "r.rack"
    save_rack(permutation_rack(Perm.from_cycles(4, [0, 1], [2, 3])), path)  # homogeneous, not connected
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0 and "homogeneous: true" in out.splitlines()
    assert len(calls) == 1
    code, out, _ = run(capsys, "analyze", dih3_file)  # connected, so homogeneous without a search
    assert code == 0 and "homogeneous: true" in out.splitlines()
    assert len(calls) == 1


@pytest.mark.parametrize(
    "table", [permutation_rack(Perm.from_cycles(3, [0, 1])), trivial(0)], ids=["lopsided", "empty"]
)
def test_analyze_without_profile(capsys, tmp_path, table):
    path = tmp_path / "r.rack"
    save_rack(table, path)
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert {"homogeneous: false", "profile: -"} <= set(out.splitlines())


def test_canon_deterministic(capsys, tmp_path, dih3_file):
    relabeled = tmp_path / "relabeled.rack"
    save_rack(dihedral(3).relabel(Perm.from_cycles(3, [0, 2, 1])), relabeled)
    code1, out1, _ = run(capsys, "canon", dih3_file)
    code2, out2, _ = run(capsys, "canon", str(relabeled))
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("order=3 key=")


def test_iso(capsys, tmp_path, dih3_file):
    a = tmp_path / "a.rack"
    save_rack(permutation_rack(Perm.from_cycles(4, [0, 1], [2, 3])), a)
    b = tmp_path / "b.rack"
    save_rack(disjoint_union(cycle_rack(2), cycle_rack(2)), b)
    code, out, _ = run(capsys, "iso", str(a), str(b))
    assert code == 0
    assert out.strip() == "not isomorphic"
    code, out, _ = run(capsys, "iso", dih3_file, dih3_file)
    assert code == 0
    assert out.startswith("isomorphic")


def test_decompose(capsys, tmp_path):
    path = tmp_path / "sym3conj.rack"
    save_rack(conjugation_quandle(symmetric_group(3)), path)
    code, out, _ = run(capsys, "decompose", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # four parts plus the depth line
    # the 3-cycle class is one orbit that splits again, so the tree has
    # height two even though there are four leaves
    assert lines[-1] == "depth: 2"


def test_burnside_and_registry_reuse(capsys, tmp_path, workspace):
    path = tmp_path / "sym3conj.rack"
    save_rack(conjugation_quandle(symmetric_group(3)), path)
    code, out1, _ = run(capsys, "--workspace", workspace, "burnside", str(path))
    assert code == 0
    assert out1.count("*") == 2
    assert out1.split()[0] == "3"

    # the element is re-parseable into an equal element
    registry = ClassRegistry()
    text = "\n".join(
        f"{term.split(' * ')[0]} {term.split('[')[1].rstrip(']')}"
        for term in out1.strip().split(" + ")
    )
    element = parse_element(text, registry)
    assert sorted(element.values()) == [1, 3]

    # second run reuses ids: identical output, registry unchanged
    code, out2, _ = run(capsys, "--workspace", workspace, "burnside", str(path))
    assert out2 == out1
    code, reg_out, _ = run(capsys, "--workspace", workspace, "registry")
    assert code == 0
    ids = [line.split()[0] for line in reg_out.strip().splitlines()]
    assert ids == ["0", "1"]


def test_corrupt_registry_reports_line(capsys, tmp_path, workspace, dih3_file):
    from rackring import canonical_key

    run(capsys, "--workspace", workspace, "burnside", dih3_file)
    registry_file = os.path.join(workspace, "registry.txt")
    with open(registry_file, "a", encoding="utf-8") as fh:
        fh.write("7 3 zz nothex\n")
    code, _, err = run(capsys, "--workspace", workspace, "registry")
    assert code == 1
    assert "line 2" in err

    good = Path(registry_file).read_text().splitlines()[0]
    _, order, flags, key = good.split()
    registry_path, products_path = Path(registry_file), Path(workspace) / "products.txt"
    # name -> (registry text, products text, how the error starts)
    cases = {
        "truncated key": (f"{good}\n1 3 cq 0000000300\n", "", "error: line 2: "),
        "duplicate key": (f"{good}\n1 {order} {flags} {key}\n", "", "error: line 2: "),
        "disconnected rack": (f"{good}\n1 2 cq {canonical_key(trivial(2)).hex()}\n", "", "error: line 2: "),
        "id gap": (
            f"{good}\n2 {order} {flags} {key}\n",
            "",
            "error: line 2: ids must be contiguous; expected 1, got 2\n",
        ),
        "wrong order": (f"0 4 {flags} {key}\n", "", f"error: line 1: corrupt registry entry '0 4 {flags} {key}'\n"),
        "wrong flags": (f"0 {order} c- {key}\n", "", f"error: line 1: corrupt registry entry '0 {order} c- {key}'\n"),
        "product without =": (
            f"{good}\n",
            f"{key} {key} 9 {key}\n",
            "error: line 1: expected `<hex> <hex> = [<coeff> <hex> ...]`\n",
        ),
        "non-hex product key": (f"{good}\n", f"{key} zz = 3 {key}\n", "error: line 1: corrupt product entry: "),
    }
    for name, (registry_text, products_text, error) in cases.items():
        registry_path.write_text(registry_text)
        products_path.write_text(products_text)
        for argv in (["registry"], ["burnside", dih3_file]):
            code, out, err = run(capsys, "--workspace", workspace, *argv)
            assert code == 1 and out == "", (name, argv)
            assert err.startswith(error) and "Traceback" not in err, (name, err)
            assert registry_path.read_text() == registry_text, name
            assert products_path.read_text() == products_text, name

    # a stored product past the product bound reads as written: only its
    # recomputation under --check meets the bound
    d13, point = canonical_key(dihedral(13)).hex(), canonical_key(trivial(1)).hex()
    registry_text, products_text = f"0 13 cq {d13}\n1 1 cq {point}\n", f"{d13} {d13} = 169 {point}\n"
    registry_path.write_text(registry_text)
    products_path.write_text(products_text)
    code, out, err = run(capsys, "--workspace", workspace, "registry")
    assert code == 0 and out.splitlines()[0] == f"0 13 cq {d13}" and err == ""
    code, out, err = run(capsys, "--workspace", workspace, "registry", "--check")
    assert code == 1 and out == ""
    assert err == f"error: line 1: product of classes of orders 13 and 13 exceeds the product bound {MAX_PRODUCT_ORDER}\n"
    assert registry_path.read_text() == registry_text
    assert products_path.read_text() == products_text


def test_mul_command(capsys, tmp_path, workspace, dih3_file):
    run(capsys, "--workspace", workspace, "burnside", dih3_file)
    from rackring import canonical_key

    key = canonical_key(dihedral(3)).hex()
    element_file = tmp_path / "x.elem"
    element_file.write_text(f"1 {key}\n")
    out_file = tmp_path / "product.elem"
    code, out, _ = run(
        capsys, "--workspace", workspace, "mul", str(element_file), str(element_file), "-o", str(out_file)
    )
    assert code == 0
    registry = ClassRegistry()
    element = parse_element(out_file.read_text(), registry)
    ((class_id, coeff),) = element.items()
    assert coeff == 1
    assert registry.entry(class_id).order == 9


def test_mul_command_bounds_product_order(capsys, tmp_path, workspace, dih3_file):
    from rackring import canonical_key

    run(capsys, "--workspace", workspace, "burnside", dih3_file)
    registry_file = Path(workspace) / "registry.txt"
    before = registry_file.read_text()
    d3_cubed = product(product(dihedral(3), dihedral(3)), dihedral(3))
    element_file = tmp_path / "d3cubed.elem"
    element_file.write_text(f"1 {canonical_key(d3_cubed).hex()}\n")
    code, out, err = run(capsys, "--workspace", workspace, "mul", str(element_file), str(element_file))
    assert code == 1 and out == ""
    assert "27 and 27" in err and str(MAX_PRODUCT_ORDER) in err and "Traceback" not in err
    assert registry_file.read_text() == before


def test_marks_command(capsys, dih3_file):
    code, out, _ = run(capsys, "marks", dih3_file, dih3_file)
    assert code == 0
    assert out.splitlines()[0] == "mor=9 inj=6 sur=6"


def test_color_command(capsys, tmp_path, dih3_file):
    pres = tmp_path / "trefoil.qpres"
    pres.write_text(format_presentation(trefoil_presentation()))
    code, out, _ = run(capsys, "color", str(pres), dih3_file)
    assert code == 0
    assert out.strip() == "9"
    pres.write_text("qpres -1\n")
    code, _, err = run(capsys, "color", str(pres), dih3_file)
    assert code == 1 and "line 1" in err


def test_color_command_with_many_free_generators(capsys, tmp_path):
    pres = tmp_path / "free.qpres"
    pres.write_text("qpres 1200\n")
    two = tmp_path / "two.rack"
    save_rack(trivial(2), two)
    code, out, err = run(capsys, "color", str(pres), str(two))
    assert (code, out, err) == (0, f"{2**1200}\n", "")


def _decimal(n):
    """str(n) past the interpreter's limit on int-to-str digits, restored afterwards."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_color_prints_counts_of_any_length(capsys, tmp_path):
    """Printing the report lifts the limit on int-to-str digits; reading the
    input keeps it, so a 5,000-digit header is still a bad order."""
    pres = tmp_path / "free.qpres"
    pres.write_text("qpres 20000\n")
    two = tmp_path / "two.rack"
    save_rack(trivial(2), two)
    limit = getattr(sys, "get_int_max_str_digits", int)()
    digits = _decimal(2**20000)
    assert len(digits) == 6021
    assert run(capsys, "color", str(pres), str(two)) == (0, f"{digits}\n", "")
    assert run(capsys, "--json", "color", str(pres), str(two)) == (0, f'{{"colorings": {digits}}}\n', "")
    assert getattr(sys, "get_int_max_str_digits", int)() == limit
    huge = tmp_path / "huge.rack"
    huge.write_text(f"rack {'9' * 5000}\n")
    code, out, err = run(capsys, "color", str(pres), str(huge))
    assert (code, out) == (1, "") and err.startswith("error: line 1: bad order '999")


def test_enumerate_command(capsys, tmp_path):
    emit = tmp_path / "classes"
    code, out, _ = run(
        capsys, "enumerate", "--order", "3", "--quandle", "--emit", str(emit)
    )
    assert code == 0
    assert out.strip() == "3"
    files = sorted(os.listdir(emit))
    assert len(files) == 3
    assert all(name.endswith(".rack") for name in files)
    from rackring import load_rack, canonical_key

    for name in files:
        table = load_rack(emit / name)
        assert canonical_key(table).hex() == name[: -len(".rack")]


def test_emit_name_fallback_for_long_keys():
    from rackring.cli import _emit_name

    short = "00" * 20
    assert _emit_name(short) == f"{short}.rack"
    # an order-8 key is 264 hex characters, past common filename limits
    long = "0a" * 132
    name = _emit_name(long)
    assert name.startswith("sha256-") and name.endswith(".rack")
    assert len(name) < 255
    assert _emit_name(long) == name  # deterministic


def test_enumerate_bound_error(capsys):
    code, _, err = run(capsys, "enumerate", "--order", "9", "--quandle")
    assert code == 1
    assert "bound" in err


def test_coset_rack_command(capsys, tmp_path):
    group_file = tmp_path / "c6.group"
    from rackring import cyclic_group

    group_file.write_text(format_group(cyclic_group(6)))
    code, out, _ = run(capsys, "coset-rack", str(group_file), "--h", "0,2,4", "--mu", "1")
    assert code == 0
    assert out.splitlines()[0] == "order 2 quandle false centralizing true"
    # invalid: not a subgroup
    code, _, err = run(capsys, "coset-rack", str(group_file), "--h", "0,1", "--mu", "0")
    assert code == 1
    # invalid pair: in S3, [t, r] = r for a transposition t and a 3-cycle r
    group_file.write_text(format_group(symmetric_group(3)))
    code, out, err = run(capsys, "coset-rack", str(group_file), "--h", "0,1", "--mu", "3")
    assert (code, out) == (1, "")
    assert err == "error: invalid pair: some commutator [h, mu] leaves the normal core\n"


def test_coset_rack_command_computes_one_normal_core(capsys, tmp_path, monkeypatch):
    """S3 over A3 with a transposition: a valid pair that is not centralizing."""
    from rackring.groups import FinGroup

    calls = []
    normal_core = FinGroup.normal_core
    monkeypatch.setattr(FinGroup, "normal_core", lambda self, h: calls.append(h) or normal_core(self, h))
    sym3 = symmetric_group(3)
    group_file = tmp_path / "sym3.group"
    group_file.write_text(format_group(sym3))
    a3 = sym3.subgroup_from([next(g for g in range(6) if sym3.mul(g, g) not in (0, g))])
    t = next(g for g in range(6) if g != 0 and sym3.mul(g, g) == 0)
    code, out, _ = run(capsys, "coset-rack", str(group_file), "--h", ",".join(map(str, a3)), "--mu", str(t))
    assert (code, out.splitlines()[0]) == (0, "order 2 quandle false centralizing false")
    assert calls == [a3]


def test_coset_rack_sl2_file(capsys, tmp_path):
    sl2_file = tmp_path / "sl2.group"
    sl2_file.write_text("sl2 3\n1 1 0 1\n1 0 1 1\n")
    from rackring import special_linear_2

    _, matrices = special_linear_2(3)
    # indices depend on BFS discovery order; recompute them here
    index = {m: i for i, m in enumerate(matrices)}
    h = ",".join(str(index[(1, b, 0, 1)]) for b in range(3))
    mu = index[(2, 2, 0, 2)]
    argv = ["coset-rack", str(sl2_file), "--h", h, "--mu", str(mu)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[0] == "order 8 quandle false centralizing true"
    # comments and blank lines may come before the header
    sl2_file.write_text("# SL2(F_3)\n\nsl2 3  # prime\n1 1 0 1\n1 0 1 1\n")
    assert run(capsys, *argv) == (0, out, "")
    sl2_file.write_text("sl2 0\n1 1 0 1\n")
    code, _, err = run(capsys, "coset-rack", str(sl2_file), "--h", "0", "--mu", "0")
    assert code == 1 and "line 1" in err
    # Z/4 is no field: the modulus must be prime
    sl2_file.write_text("sl2 4\n1 1 0 1\n1 0 1 1\n")
    output = tmp_path / "sl2_4.rack"
    code, out, err = run(capsys, "coset-rack", str(sl2_file), "--h", "0", "--mu", "0", "-o", str(output))
    assert (code, out, err) == (1, "", "error: line 1: modulus 4 is not prime\n")
    assert not output.exists()


def test_conj_quandle_command(capsys, tmp_path):
    group_file = tmp_path / "sym3.group"
    group_file.write_text(format_group(symmetric_group(3)))
    code, out, _ = run(capsys, "conj-quandle", str(group_file))
    assert code == 0
    assert out.splitlines()[0] == "order 6"
    sym3 = symmetric_group(3)
    t = next(g for g in range(6) if g != 0 and sym3.mul(g, g) == 0)
    code, out, _ = run(capsys, "conj-quandle", str(group_file), "--class", str(t))
    assert code == 0
    assert out.splitlines()[0] == "order 3"
    # the group format also takes `sl2 <p>`
    from rackring import special_linear_2

    group_file.write_text("sl2 3\n")
    table = conjugation_quandle(special_linear_2(3)[0])
    expected = ["order 24"] + [" ".join(map(str, row)) for row in table.table]
    assert run(capsys, "conj-quandle", str(group_file)) == (0, "\n".join(expected) + "\n", "")


def test_conj_quandle_rejects_the_empty_group(capsys, tmp_path):
    group_file = tmp_path / "empty.group"
    group_file.write_text("group 0\n")
    code, out, err = run(capsys, "conj-quandle", str(group_file))
    assert (code, out) == (1, "")
    assert "line 1" in err and "identity at index 0" in err


@pytest.mark.parametrize(
    "argv, element",
    [
        (["coset-rack", "--h", "0", "--mu", "5"], 5),
        (["coset-rack", "--h", "0", "--mu", "-1"], -1),
        (["coset-rack", "--h", "0,7", "--mu", "0"], 7),
        (["conj-quandle", "--class", "9"], 9),
        (["conj-quandle", "--class", "-1"], -1),
    ],
    ids=["mu-5", "mu-minus-1", "h-7", "class-9", "class-minus-1"],
)
def test_group_element_indices_are_range_checked(capsys, tmp_path, argv, element):
    from rackring import cyclic_group

    group_file = tmp_path / "c4.group"
    group_file.write_text(format_group(cyclic_group(4)))
    code, out, err = run(capsys, argv[0], str(group_file), *argv[1:])
    assert (code, out) == (1, "")
    assert err == f"error: element {element} is not in 0..3\n"


def test_crossed_command(capsys, dih3_file):
    code, out, _ = run(capsys, "crossed", dih3_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "automorphism group order: 6"
    assert lines[1] == "round trip table identical: true"
    assert lines[2] == "round trip equivalent: true"


def test_crossed_builds_one_crossed_action(capsys, dih3_file, monkeypatch):
    from rackring import groups

    built = []

    def counting(table):
        built.append(table)
        return rack_to_crossed(table)

    # `cmd_crossed` imports `groups` when it runs, so it reads the patched name
    monkeypatch.setattr(groups, "rack_to_crossed", counting)
    code, _, _ = run(capsys, "crossed", dih3_file)
    assert code == 0 and len(built) == 1


def two_build_crossed_output(table):
    """The text and JSON output of `crossed` computed with a second crossed
    action of the round-tripped table and an equivalence check between them."""
    crossed = rack_to_crossed(table)
    back = crossed_to_rack(crossed)
    identical = back == table
    again = rack_to_crossed(back)
    equivalent = identical and is_equivalence(
        list(range(crossed.group.n)), list(range(table.n)), crossed, again
    )
    report = {
        "group_order": crossed.group.n,
        "round_trip_identical": identical,
        "round_trip_equivalent": equivalent,
    }
    text = (
        f"automorphism group order: {crossed.group.n}\n"
        f"round trip table identical: {str(identical).lower()}\n"
        f"round trip equivalent: {str(equivalent).lower()}\n"
    )
    return text, json.dumps(report) + "\n"


def assert_crossed_matches_two_builds(capsys, tmp_path, table):
    path = tmp_path / "crossed.rack"
    save_rack(table, path)
    text, report = two_build_crossed_output(table)
    assert run(capsys, "crossed", str(path)) == (0, text, "")
    assert run(capsys, "--json", "crossed", str(path)) == (0, report, "")


def test_crossed_matches_two_builds_up_to_order_4(capsys, tmp_path, racks_by_order):
    for n in range(1, 5):
        for table in racks_by_order[n]:
            assert_crossed_matches_two_builds(capsys, tmp_path, table)


@pytest.mark.parametrize("table", [product(dihedral(3), dihedral(3)), trivial(6)], ids=["d3xd3", "trivial6"])
def test_crossed_matches_two_builds_on_large_groups(capsys, tmp_path, table):
    assert_crossed_matches_two_builds(capsys, tmp_path, table)


def test_crossed_command_bounds_group_order(capsys, tmp_path):
    path = tmp_path / "trivial12.rack"
    save_rack(trivial(12), path)
    code, out, err = run(capsys, "crossed", str(path))
    assert code == 1 and out == ""
    assert "479001600" in err and str(MAX_CROSSED_GROUP_ORDER) in err


def test_failed_commands_leave_no_workspace(capsys, tmp_path, workspace, dih3_file):
    from rackring import canonical_key

    bad = tmp_path / "bad.elem"
    disconnected = canonical_key(trivial(2)).hex()
    for text, line in (("1 zz\n", 1), (f"# two points\n1 {disconnected}\n", 2)):
        bad.write_text(text)
        code, out, err = run(capsys, "--workspace", workspace, "mul", str(bad), str(bad))
        assert code == 1 and out == "" and err.startswith(f"error: line {line}: "), err
        assert not os.path.exists(workspace)

    code, out, _ = run(capsys, "--workspace", workspace, "registry")
    assert code == 0 and out.strip() == "(empty registry)"
    assert not os.path.exists(workspace)

    code, _, _ = run(capsys, "--workspace", workspace, "burnside", dih3_file)
    assert code == 0
    assert os.stat(os.path.join(workspace, ".lock")).st_mode & 0o7777 & ~0o644 == 0


def test_workspace_env_variable(capsys, tmp_path, dih3_file, monkeypatch):
    env_space = str(tmp_path / "env-data")
    monkeypatch.setenv("RACKRING_WORKSPACE", env_space)
    code, _, _ = run(capsys, "burnside", dih3_file)
    assert code == 0
    assert os.path.exists(os.path.join(env_space, "registry.txt"))
    # the flag wins over the environment
    flag_space = str(tmp_path / "flag-data")
    code, _, _ = run(capsys, "--workspace", flag_space, "burnside", dih3_file)
    assert os.path.exists(os.path.join(flag_space, "registry.txt"))


def test_every_subcommand_has_json_output(capsys, tmp_path, workspace, dih3_file):
    from rackring import cyclic_group

    sym3_file = tmp_path / "sym3.group"
    sym3_file.write_text(format_group(symmetric_group(3)))
    c6_file = tmp_path / "c6.group"
    c6_file.write_text(format_group(cyclic_group(6)))
    pres_file = tmp_path / "trefoil.qpres"
    pres_file.write_text(format_presentation(trefoil_presentation()))
    from rackring import canonical_key

    elem_file = tmp_path / "x.elem"
    elem_file.write_text(f"1 {canonical_key(dihedral(3)).hex()}\n")

    invocations = [
        ["validate", dih3_file],
        ["analyze", dih3_file],
        ["canon", dih3_file],
        ["iso", dih3_file, dih3_file],
        ["decompose", dih3_file],
        ["burnside", dih3_file],
        ["mul", str(elem_file), str(elem_file)],
        ["marks", dih3_file, dih3_file],
        ["color", str(pres_file), dih3_file],
        ["enumerate", "--order", "2"],
        ["coset-rack", str(c6_file), "--h", "0,2,4", "--mu", "1"],
        ["conj-quandle", str(sym3_file)],
        ["crossed", dih3_file],
        ["registry"],
    ]
    for argv in invocations:
        code, out, err = run(capsys, "--workspace", workspace, "--json", *argv)
        assert code == 0, (argv, err)
        assert isinstance(json.loads(out), dict), argv


def test_empty_registry_listing(capsys, workspace):
    code, out, _ = run(capsys, "--workspace", workspace, "registry")
    assert code == 0
    assert out.strip() == "(empty registry)"


def test_products_persist(capsys, tmp_path, workspace, dih3_file):
    from rackring import canonical_key

    key = canonical_key(dihedral(3)).hex()
    element_file = tmp_path / "x.elem"
    element_file.write_text(f"1 {key}\n")
    run(capsys, "--workspace", workspace, "mul", str(element_file), str(element_file))
    products_file = os.path.join(workspace, "products.txt")
    assert os.path.exists(products_file)
    first = Path(products_file).read_text()
    assert first.strip()
    # reloading and re-multiplying keeps the memo stable
    run(capsys, "--workspace", workspace, "mul", str(element_file), str(element_file))
    assert Path(products_file).read_text() == first

    # every product key must name a registry class
    unknown = canonical_key(cycle_rack(2)).hex()
    with open(products_file, "a", encoding="utf-8") as fh:
        fh.write(f"{key} {unknown} = 1 {unknown}\n")
    code, _, err = run(capsys, "--workspace", workspace, "registry")
    assert code == 1
    assert err.startswith(f"error: line {len(first.splitlines()) + 1}: ")


def test_unchanged_index_files_are_not_rewritten(capsys, tmp_path, workspace, dih3_file):
    files = [os.path.join(workspace, name) for name in ("registry.txt", "products.txt")]

    def inodes():
        # the atomic writer renames a fresh file into place, so a rewrite
        # shows as a new inode
        return [os.stat(path).st_ino for path in files]

    assert run(capsys, "--workspace", workspace, "burnside", dih3_file)[0] == 0
    first = inodes()
    assert run(capsys, "--workspace", workspace, "burnside", dih3_file)[0] == 0
    assert inodes() == first

    from rackring import canonical_key

    element_file = tmp_path / "x.elem"
    element_file.write_text(f"1 {canonical_key(dihedral(3)).hex()}\n")
    argv = ["--workspace", workspace, "mul", str(element_file), str(element_file)]
    assert run(capsys, *argv)[0] == 0
    multiplied = inodes()
    assert multiplied[0] != first[0] and multiplied[1] != first[1]
    assert run(capsys, *argv)[0] == 0
    assert inodes() == multiplied

    other = tmp_path / "c3.rack"
    save_rack(cycle_rack(3), other)
    assert run(capsys, "--workspace", workspace, "burnside", str(other))[0] == 0
    added = inodes()
    assert added[0] != multiplied[0] and added[1] == multiplied[1]
    assert len(Path(files[0]).read_text().splitlines()) == 3


def test_failed_save_keeps_workspace(capsys, monkeypatch, tmp_path, workspace, dih3_file):
    run(capsys, "--workspace", workspace, "burnside", dih3_file)
    registry_file = os.path.join(workspace, "registry.txt")
    before = Path(registry_file).read_text()
    _, listing, _ = run(capsys, "--workspace", workspace, "registry")
    other = tmp_path / "c3.rack"
    save_rack(cycle_rack(3), other)

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    code, _, err = run(capsys, "--workspace", workspace, "burnside", str(other))
    monkeypatch.undo()
    assert code == 1 and "replace failed" in err
    assert Path(registry_file).read_text() == before
    code, out, _ = run(capsys, "--workspace", workspace, "registry")
    assert code == 0 and out == listing

    code, _, _ = run(capsys, "--workspace", workspace, "burnside", str(other))
    assert code == 0
    names = [name for _, _, files in os.walk(workspace) for name in files]
    assert sorted(names) == [".lock", "0.rack", "1.rack", "products.txt", "registry.txt"]
