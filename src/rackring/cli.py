"""Command-line interface and workspace persistence.

Commands are deterministic given the workspace state.  Exit codes: 0 on
success, 1 on domain errors (invalid tables, failed preconditions,
unreadable files), 2 on usage errors.  Every report has a machine-readable
form behind the global --json flag.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import sys
from contextlib import contextmanager

from .burnside import (
    BurnsideElement, BurnsideRing, ClassRegistry, decode_element, format_element, register_terms, render_element,
)
from .canonical import canonical_form, canonical_key, find_isomorphism, table_bytes
from .racks import FormatError, InvalidRackError, _read_text, _significant_lines, _write_text, load_rack, save_rack
from .structure import connected_parts, depth, inn_orbits, is_connected, is_irreducible, profile

# the commands that run `groups`, `enumeration` and `marks` import them, so the others start faster

DEFAULT_WORKSPACE = "./rackring-data"
WORKSPACE_ENV = "RACKRING_WORKSPACE"


class Workspace:
    """Directory holding the registry, representative tables and product memo."""

    def __init__(self, path):
        self.path = path
        # index file -> entries load_ring read from it
        self.loaded = {}

    @property
    def registry_file(self):
        return os.path.join(self.path, "registry.txt")

    @property
    def tables_dir(self):
        return os.path.join(self.path, "tables")

    @property
    def products_file(self):
        return os.path.join(self.path, "products.txt")

    @contextmanager
    def lock(self, shared=False):
        os.makedirs(self.path, exist_ok=True)
        lock_path = os.path.join(self.path, ".lock")
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_SH if shared else fcntl.LOCK_EX)
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    def load_ring(self, check=False) -> BurnsideRing:
        """Read the registry and products memo, trusting that stored keys are
        canonical and stored products right unless `check` asks for a
        canonical search per key and a recomputation per product."""
        registry = ClassRegistry()
        ring = BurnsideRing(registry)
        if os.path.exists(self.registry_file):
            for lineno, line in _significant_lines(_read_text(self.registry_file)):
                parts = line.split()
                if len(parts) != 4:
                    raise FormatError("expected `<id> <order> <flags> <hex key>`", lineno)
                try:
                    class_id, order = int(parts[0]), int(parts[1])
                    key = bytes.fromhex(parts[3])
                except ValueError:
                    raise FormatError(f"corrupt registry entry {line!r}", lineno) from None
                try:
                    registry.merge_entry(class_id, key)
                except ValueError as exc:
                    raise FormatError(str(exc), lineno) from None
                # the line must read as save_ring writes it, up to number and hex spelling
                if _registry_line(registry.entry(class_id)) != f"{class_id} {order} {parts[2]} {key.hex()}":
                    raise FormatError(f"corrupt registry entry {line!r}", lineno)
                if check and canonical_key(registry.entry(class_id).table) != key:
                    raise FormatError("key is not the canonical key of its rack", lineno)
            self.loaded[self.registry_file] = len(registry)
        if os.path.exists(self.products_file):
            for lineno, line in _significant_lines(_read_text(self.products_file)):
                tokens = line.split()
                if len(tokens) < 3 or tokens[2] != "=" or len(tokens) % 2 == 0:
                    raise FormatError("expected `<hex> <hex> = [<coeff> <hex> ...]`", lineno)
                try:
                    entries = [registry.by_key(bytes.fromhex(tok)) for tok in tokens[:2] + tokens[4::2]]
                    coeffs = [int(tok) for tok in tokens[3::2]]
                except ValueError as exc:
                    raise FormatError(f"corrupt product entry: {exc}", lineno) from None
                if None in entries:
                    raise FormatError("product key names no registry class", lineno)
                a, b, *terms = entries
                # cardinality is a ring map, and products of quandles are quandles
                if min(coeffs, default=1) < 1:
                    raise FormatError("product coefficients must be positive", lineno)
                if sum(c * t.order for c, t in zip(coeffs, terms)) != a.order * b.order:
                    raise FormatError(f"product terms do not add up to order {a.order * b.order}", lineno)
                if a.quandle and b.quandle and not all(t.quandle for t in terms):
                    raise FormatError("a product of quandles has a non-quandle term", lineno)
                pair = min(a.id, b.id), max(a.id, b.id)
                if pair in ring.product_memo:
                    raise FormatError(f"duplicate product of classes {pair[0]} and {pair[1]}", lineno)
                element = BurnsideElement(zip((t.id for t in terms), coeffs))
                if check:
                    # on an empty memo, so no stored line vouches for another;
                    # ids and keys correspond one to one, so equal ids are equal keys
                    try:
                        recomputed = BurnsideRing(registry)._basis_product(*pair)
                    except ValueError as exc:
                        raise FormatError(str(exc), lineno) from None
                    if recomputed != element:
                        raise FormatError("product differs from its recomputation", lineno)
                ring.product_memo[pair] = element
            self.loaded[self.products_file] = len(ring.product_memo)
        return ring

    def save_ring(self, ring: BurnsideRing):
        """Replace the registry, then the products memo, then add missing
        sidecars.  Each file is replaced atomically, so after a crash every
        product key and every sidecar names a class of the registry on disk.
        Entries are only ever added, so a file holding as many entries as
        `load_ring` read from it is left as it is."""
        os.makedirs(self.tables_dir, exist_ok=True)
        registry = ring.registry
        if self.loaded.get(self.registry_file) != len(registry):
            lines = [_registry_line(e) for e in registry.entries()]
            _write_text(self.registry_file, "\n".join(lines) + ("\n" if lines else ""))
        if self.loaded.get(self.products_file) != len(ring.product_memo):
            memo_lines = []
            for (i, j), element in sorted(ring.product_memo.items()):
                tokens = [registry.entry(i).key.hex(), registry.entry(j).key.hex(), "="]
                for k in sorted(element):
                    tokens.append(str(element[k]))
                    tokens.append(registry.entry(k).key.hex())
                memo_lines.append(" ".join(tokens))
            _write_text(self.products_file, "\n".join(memo_lines) + ("\n" if memo_lines else ""))
        for entry in registry.entries():
            # sidecars are named by id: full keys outgrow filename limits
            table_path = os.path.join(self.tables_dir, f"{entry.id}.rack")
            if not os.path.exists(table_path):
                save_rack(entry.table, table_path)


def _registry_line(entry) -> str:
    """`<id> <order> <flags> <hex key>`, flags `cq` for quandles, `c-` otherwise."""
    return f"{entry.id} {entry.order} {'cq' if entry.quandle else 'c-'} {entry.key.hex()}"


def _element_report(element, registry):
    terms = [{"coefficient": element[i], "key": registry.entry(i).key.hex()} for i in sorted(element)]
    return {"element": terms}, [render_element(element, registry)]


def _cycle_factors(vector) -> str:
    return " ".join(f"{k}^{vector[k]}" for k in sorted(vector)) if vector else "-"


def _element_list(text):  # the type of --h
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}") from None


# -- command handlers -----------------------------------------------------------


def cmd_validate(args):
    table = load_rack(args.file)
    kind = "quandle" if table.is_quandle() else "rack"
    report = {"valid": True, "kind": kind, "order": table.n}
    return report, [f"valid {kind}, order {table.n}"]


def cmd_analyze(args):
    table = load_rack(args.file)
    try:
        homogeneous, prof = True, _cycle_factors(profile(table))
    except ValueError:  # only a homogeneous rack has a profile, and the empty one is not homogeneous
        homogeneous, prof = False, "-"
    report = {
        "order": table.n,
        "quandle": table.is_quandle(),
        "connected": is_connected(table),
        "homogeneous": homogeneous,
        "irreducible": is_irreducible(table),
        "orbit_sizes": [len(o) for o in inn_orbits(table)],
        "depth": depth(table),
        "profile": prof,
        "sigma": _cycle_factors(table.canonical_automorphism().cycle_type()),
    }
    lines = [
        f"order: {report['order']}",
        f"quandle: {str(report['quandle']).lower()}",
        f"connected: {str(report['connected']).lower()}",
        f"homogeneous: {str(report['homogeneous']).lower()}",
        f"irreducible: {str(report['irreducible']).lower()}",
        "orbit sizes: " + " ".join(map(str, report["orbit_sizes"])),
        f"depth: {report['depth']}",
        f"profile: {report['profile']}",
        f"sigma cycle type: {report['sigma']}",
    ]
    return report, lines


def cmd_canon(args):
    table = load_rack(args.file)
    form, _ = canonical_form(table)
    key = table_bytes(form).hex()
    lines = [f"order={table.n} key={key}"]
    lines.extend(" ".join(map(str, row)) for row in form.table)
    return {"order": table.n, "key": key, "table": [list(r) for r in form.table]}, lines


def cmd_iso(args):
    a = load_rack(args.file_a)
    b = load_rack(args.file_b)
    witness = find_isomorphism(a, b)
    if witness is None:
        return {"isomorphic": False}, ["not isomorphic"]
    return {"isomorphic": True, "witness": list(witness.images)}, [f"isomorphic via {witness}"]


def cmd_decompose(args):
    table = load_rack(args.file)
    parts = connected_parts(table)
    report = {"depth": depth(table), "parts": []}
    lines = []
    for part in parts:
        key = canonical_key(table.restrict(part)).hex()
        report["parts"].append({"indices": list(part), "order": len(part), "key": key})
        lines.append(f"part {{{', '.join(map(str, part))}}} order {len(part)} key {key}")
    lines.append(f"depth: {report['depth']}")
    return report, lines


def cmd_burnside(args):
    table = load_rack(args.file)
    workspace = Workspace(args.workspace)
    with workspace.lock():
        ring = workspace.load_ring()
        element = ring.of_rack(table)
        workspace.save_ring(ring)
    return _element_report(element, ring.registry)


def cmd_mul(args):
    # decoded before the lock, so bad input leaves no workspace behind
    terms = [decode_element(_read_text(path)) for path in (args.file_x, args.file_y)]
    workspace = Workspace(args.workspace)
    with workspace.lock():
        ring = workspace.load_ring()
        x, y = (register_terms(t, ring.registry) for t in terms)
        result = ring.mul(x, y)
        workspace.save_ring(ring)
    if args.output:
        _write_text(args.output, format_element(result, ring.registry))
    return _element_report(result, ring.registry)


def cmd_marks(args):
    from .marks import census

    source = load_rack(args.source)
    target = load_rack(args.target)
    cen = census(source, target)
    report = {
        "mor": cen.mor,
        "inj": cen.inj,
        "sur": cen.sur,
        "by_image": dict(sorted(cen.by_image.items())),
    }
    lines = [f"mor={cen.mor} inj={cen.inj} sur={cen.sur}"]
    lines.extend(f"image {key}: {count}" for key, count in sorted(cen.by_image.items()))
    return report, lines


def cmd_color(args):
    from .marks import colorings, parse_presentation

    presentation = parse_presentation(_read_text(args.presentation))
    table = load_rack(args.rack)
    count = colorings(presentation, table)
    return {"colorings": count}, [count]


def _emit_name(key_hex):
    """Hex key as filename; digest fallback once keys outgrow name limits."""
    if len(key_hex) <= 200:
        return f"{key_hex}.rack"
    import hashlib

    return f"sha256-{hashlib.sha256(bytes.fromhex(key_hex)).hexdigest()}.rack"


def cmd_enumerate(args):
    from .enumeration import EnumerationFilter, enumerate_racks

    filt = EnumerationFilter(args.order, quandle_only=args.quandle, connected_only=args.connected)
    tables = enumerate_racks(filt)
    # enumerate_racks returns canonical forms, which are their own keys
    keys = [table_bytes(t).hex() for t in tables]
    if args.emit:
        os.makedirs(args.emit, exist_ok=True)
        for key, table in zip(keys, tables):
            save_rack(table, os.path.join(args.emit, _emit_name(key)))
    return {"count": len(tables), "keys": keys}, [str(len(tables))]


def cmd_coset_rack(args):
    from .groups import coset_rack, parse_group

    group = parse_group(_read_text(args.group))
    table = coset_rack(group, args.subgroup, args.mu)
    strict = set(args.subgroup) <= set(group.centralizer(args.mu))
    if args.output:
        save_rack(table, args.output)
    lines = [f"order {table.n} quandle {str(table.is_quandle()).lower()} centralizing {str(strict).lower()}"]
    lines.extend(" ".join(map(str, row)) for row in table.table)
    report = {
        "order": table.n,
        "quandle": table.is_quandle(),
        "centralizing": strict,
        "table": [list(r) for r in table.table],
    }
    return report, lines


def cmd_conj_quandle(args):
    from .groups import _check_elements, conjugation_class_quandle, conjugation_quandle, parse_group

    group = parse_group(_read_text(args.group))
    if args.cls is None:
        table = conjugation_quandle(group)
    else:
        _check_elements(group, [args.cls])
        cls = next(c for c in group.conjugacy_classes() if args.cls in c)
        table = conjugation_class_quandle(group, cls)
    if args.output:
        save_rack(table, args.output)
    lines = [f"order {table.n}"]
    lines.extend(" ".join(map(str, row)) for row in table.table)
    return {"order": table.n, "table": [list(r) for r in table.table]}, lines


def cmd_crossed(args):
    from .groups import crossed_to_rack, rack_to_crossed

    table = load_rack(args.file)
    crossed = rack_to_crossed(table)
    # an identical table rebuilds this action, which the identity maps make equivalent to itself
    identical = crossed_to_rack(crossed) == table
    report = {
        "group_order": crossed.group.n,
        "round_trip_identical": identical,
        "round_trip_equivalent": identical,
    }
    lines = [
        f"automorphism group order: {crossed.group.n}",
        f"round trip table identical: {str(identical).lower()}",
        f"round trip equivalent: {str(identical).lower()}",
    ]
    return report, lines


def cmd_registry(args):
    workspace = Workspace(args.workspace)
    ring = BurnsideRing()  # listing a missing workspace creates nothing
    if os.path.exists(workspace.path):
        with workspace.lock(shared=True):
            ring = workspace.load_ring(check=args.check)
    entries = ring.registry.entries()
    report = {
        "entries": [
            {
                "id": e.id,
                "order": e.order,
                "quandle": e.quandle,
                "key": e.key.hex(),
            }
            for e in entries
        ]
    }
    lines = [_registry_line(e) for e in entries] or ["(empty registry)"]
    return report, lines


def build_parser():
    parser = argparse.ArgumentParser(prog="rackring", description=__doc__)
    parser.add_argument(
        "--workspace",
        default=os.environ.get(WORKSPACE_ENV, DEFAULT_WORKSPACE),
        help=f"data directory (default {DEFAULT_WORKSPACE}, env {WORKSPACE_ENV})",
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a rack file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="structural report of a rack")
    p.add_argument("file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("canon", help="canonical key and table")
    p.add_argument("file")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("iso", help="isomorphism test for two racks")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("decompose", help="maximal connected parts")
    p.add_argument("file")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("burnside", help="class of a rack over the workspace registry")
    p.add_argument("file")
    p.set_defaults(func=cmd_burnside)

    p = sub.add_parser("mul", help="product of two element files")
    p.add_argument("file_x")
    p.add_argument("file_y")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("marks", help="morphism census between two racks")
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(func=cmd_marks)

    p = sub.add_parser("color", help="colorings of a presented quandle")
    p.add_argument("presentation")
    p.add_argument("rack")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("enumerate", help="isomorph-free generation")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--quandle", action="store_true")
    p.add_argument("--connected", action="store_true")
    p.add_argument("--emit")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("coset-rack", help="rack on cosets of a subgroup")
    p.add_argument("group")
    p.add_argument("--h", dest="subgroup", type=_element_list, required=True, help="comma-separated subgroup elements")
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_coset_rack)

    p = sub.add_parser("conj-quandle", help="conjugation quandle of a group")
    p.add_argument("group")
    p.add_argument("--class", dest="cls", type=int, default=None, help="class representative")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_conj_quandle)

    p = sub.add_parser("crossed", help="crossed-action round trip report")
    p.add_argument("file")
    p.set_defaults(func=cmd_crossed)

    p = sub.add_parser("registry", help="list the workspace registry")
    p.add_argument(
        "--check", action="store_true", help="also check that every stored key is canonical and recompute every product"
    )
    p.set_defaults(func=cmd_registry)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, lines = args.func(args)
    except (FormatError, InvalidRackError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0, no limit, where Python has none
    try:
        if limit:  # counts print exactly at any length; parsing the input kept the limit
            sys.set_int_max_str_digits(0)
        for line in [json.dumps(report)] if args.json else lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left; point stdout at devnull so the exit-time flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
