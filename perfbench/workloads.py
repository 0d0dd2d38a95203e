"""The three workloads: their inputs, set-up, per-pass commands and answer checks.

Every command runs with `--json`, and its report is checked: against a
published count, against a property the benchmark verifies itself (an
isomorphism witness, a round trip), or against a digest pinned on the seed
commit.  Pinned digests are taken over seed-invariant normal forms (sorted
keys, never class ids), so one pin holds for every seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import inputs as rk

# Digests of the normal forms below, taken from the seed commit's output.
PINNED = {
    "keys/quandles-7": "618f9be88c8d4250",
    "keys/racks-6": "8b86b1e44495be0f",
    "keys/connected-quandles-7": "f70243612c6f2dd7",
    "key/d3^3": "95e98e274f8d581e",
    "key/conj-s5": "0ffd1eefeb383eb2",
    "key/trivial-40": "0785b056171de0e7",
    "key/tetra^2": "9cc720e90967da0f",
    "analyze/d3^3": "f2bde76d890ab958",
    "burnside/conj-s3": "78c701bdc12684f0",
    "burnside/conj-s4": "da690dc47b993586",
    "burnside/d5+d7": "7d69598c3754c95e",
    "burnside/cycle-2": "929724d2062a488c",
    "burnside/cycle-3": "007163b2f965806b",
    "burnside/cycle-4": "60bbd8d296e5f410",
    "burnside/cycle-6": "d34e4dd5d15da4b7",
    "burnside/d9+d11": "d92c54b1aad2b0c0",
    "burnside/d13": "cf182bd53ba3d329",
    "burnside/d3xd3": "a0b841aaa52be89f",
    "burnside/d3xd5": "846bcb45739e7022",
    "burnside/d3xd9": "82570fe321556c3b",
    "burnside/d5xd5": "8fc5339a4a8e5fbe",
    "mul/setup": "4c2ea41456ed4ca8",
    "registry/setup": "e5ef3e55c07ce722",
    "burnside/d3+d17": "37260ab0a08fab00",
    "burnside/d5xcycle-3": "e40f7f6c3563b194",
    "mul/pass": "73bc63f78532f986",
    "registry/pass": "9683b63bb759d61f",
    "marks/d3->conj-s5": "48426e180edf9309",
    "marks/d5->d5xd5": "2b4acd67da579839",
}


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pinned(label, normal_form=lambda report: report):
    def check(report):
        return digest(normal_form(report)) == PINNED[label]

    return check


def _element(report):
    return sorted((t["key"], t["coefficient"]) for t in report["element"])


def _registry(report):
    entries = report["entries"]
    if [e["id"] for e in entries] != list(range(len(entries))):
        return None  # ids must stay contiguous
    return sorted((e["key"], e["order"], e["quandle"]) for e in entries)


def _keys(label, count):
    def check(report):
        return report["count"] == count == len(report["keys"]) and digest(report["keys"]) == PINNED[label]

    return check


@dataclass
class Command:
    """One CLI call: `rackring --workspace WS --json SUB ARGS...`, and its answer check."""

    sub: str
    argv: list
    check: Callable[[dict], bool]


def cli(workspace, sub, *args, check):
    return Command(sub, ["--workspace", workspace, "--json", sub, *map(str, args)], check)


def _write(directory, name, text):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _write_rack(directory, name, table):
    return _write(directory, name + ".rack", rk.rack_text(table))


class Census:
    """Exhaustive enumeration: the row search and small-table canonicalisation."""

    name = "census"

    def setup(self, root, seed, execute):
        # Enumeration inputs carry no labels, so the seed changes nothing here.
        # Set-up warms the interpreter and the file cache with one small census.
        execute(cli(os.path.join(root, "ws"), "enumerate", "--order", 4, "--quandle",
                    check=lambda r: r["count"] == 7))

    def commands(self, pass_dir):
        ws = os.path.join(pass_dir, "ws")
        emit = os.path.join(pass_dir, "emit")

        def emitted(report):
            # every emitted file holds one canonical table, so its hex layout is a listed key
            files = sorted(os.listdir(emit)) if os.path.isdir(emit) else []
            tables = []
            for name in files:
                with open(os.path.join(emit, name), encoding="utf-8") as fh:
                    lines = fh.read().split("\n")[1:-1]
                tables.append(rk.table_hex([tuple(map(int, line.split())) for line in lines]))
            return _keys("keys/connected-quandles-7", 5)(report) and sorted(tables) == sorted(report["keys"])

        return [
            cli(ws, "enumerate", "--order", 7, "--quandle", check=_keys("keys/quandles-7", 298)),
            cli(ws, "enumerate", "--order", 6, check=_keys("keys/racks-6", 353)),
            cli(ws, "enumerate", "--order", 7, "--quandle", "--connected", "--emit", emit, check=emitted),
        ]


D3 = rk.dihedral(3)
D3_CUBED = rk.product(rk.product(D3, D3), D3)


class Iso:
    """Canonical keys, isomorphism witnesses, orbit tests and automorphism groups."""

    name = "iso"

    def setup(self, root, seed, execute):
        ws = os.path.join(root, "ws")
        s = lambda name, table: rk.seeded(table, seed, name)  # noqa: E731
        # dihedral(61) rather than the larger dihedral(97) keeps a pass near 20 s:
        # the traced run replays the pass three times within one run's time limit.
        self.d61 = (s("d61-a", rk.dihedral(61)), s("d61-b", rk.dihedral(61)))
        # dihedral(3)^3 is keyed as built, whatever the seed: one canonical search
        # on it takes 11 s to 35 s depending on the labelling, which would swamp
        # every other seed effect.  `analyze` is cheap and takes a seeded labelling.
        racks = {
            "d3^3": D3_CUBED,
            "conj-s5": s("conj-s5", rk.conj_symmetric(5)),
            "trivial-40": s("trivial-40", rk.trivial(40)),
            "tetra^2": s("tetra^2", rk.product(rk.tetrahedral(), rk.tetrahedral())),
            "d61-a": self.d61[0],
            "d61-b": self.d61[1],
            "d3^3-seeded": s("d3^3", D3_CUBED),
            "d3xd3": s("d3xd3", rk.product(D3, D3)),
        }
        self.files = {name: _write_rack(root, name, table) for name, table in racks.items()}
        for name, table in racks.items():
            execute(cli(ws, "validate", self.files[name],
                        check=lambda r, n=len(table): r["valid"] and r["order"] == n))

    def commands(self, pass_dir):
        ws, f = os.path.join(pass_dir, "ws"), self.files

        def one_part(report):
            return [(p["order"], digest(p["key"])) for p in report["parts"]] == [(27, PINNED["key/d3^3"])]

        # `decompose` keys dihedral(3)^3 with one canonical search; `canon` runs two.
        canon = [cli(ws, "decompose", f["d3^3"], check=one_part)] + [
            cli(ws, "canon", f[name], check=pinned("key/" + name, lambda r: r["key"]))
            for name in ("conj-s5", "trivial-40", "tetra^2")
        ]

        def witnessed(report):
            return report["isomorphic"] and rk.is_morphism(report["witness"], *self.d61)

        crossed = {"group_order": 432, "round_trip_identical": True, "round_trip_equivalent": True}
        return canon + [
            cli(ws, "iso", f["d61-a"], f["d61-b"], check=witnessed),
            cli(ws, "analyze", f["d3^3-seeded"], check=pinned("analyze/d3^3")),
            cli(ws, "crossed", f["d3xd3"], check=lambda r: r == crossed),
        ]


# Set-up racks in the order they enter the workspace: small classes first, so
# that the loads during set-up stay cheap until the order-25 and -27 classes land.
RING_SETUP = (
    ("conj-s3", rk.conj_symmetric(3)),
    ("conj-s4", rk.conj_symmetric(4)),
    ("d5+d7", rk.disjoint_union(rk.dihedral(5), rk.dihedral(7))),
    ("cycle-2", rk.cycle_rack(2)),
    ("cycle-3", rk.cycle_rack(3)),
    ("cycle-4", rk.cycle_rack(4)),
    ("cycle-6", rk.cycle_rack(6)),
    ("d9+d11", rk.disjoint_union(rk.dihedral(9), rk.dihedral(11))),
    ("d13", rk.dihedral(13)),
    ("d3xd3", rk.product(D3, D3)),
    ("d3xd5", rk.product(D3, rk.dihedral(5))),
    ("d3xd9", rk.product(D3, rk.dihedral(9))),
    ("d5xd5", rk.product(rk.dihedral(5), rk.dihedral(5))),
)
RING_NEW = (
    ("d3+d17", rk.disjoint_union(D3, rk.dihedral(17))),
    ("d5xcycle-3", rk.product(rk.dihedral(5), rk.cycle_rack(3))),
)


class Ring:
    """Burnside arithmetic in a workspace, beside morphism and colouring counts."""

    name = "ring"

    def setup(self, root, seed, execute):
        self.pristine = ws = os.path.join(root, "ws")
        s = lambda name, table: rk.seeded(table, seed, name)  # noqa: E731
        d5, d7, c2, c3 = rk.dihedral(5), rk.dihedral(7), rk.cycle_rack(2), rk.cycle_rack(3)
        self.files = {name: _write_rack(root, name, s(name, t)) for name, t in RING_SETUP + RING_NEW}
        for name, table in (("conj-s5", rk.conj_symmetric(5)), ("d3", D3), ("d5", d5), ("d5xd5", rk.product(d5, d5)),
                            ("d97", rk.dihedral(97))):
            self.files[name] = _write_rack(root, "m-" + name, s("m-" + name, table))
        self.files["trefoil"] = _write(root, "trefoil.qpres", rk.TREFOIL)
        # Element files name their classes by tables in a seeded labelling; the
        # program canonicalises them.  The pass's product meets the memo on the
        # pair (d3, d3) that set-up stored, and three pairs it has not seen.
        elements = {
            "x0": [(1, D3), (1, d5)],
            "y0": [(1, D3), (2, c2)],
            "x": [(1, D3), (1, d7)],
            "y": [(1, D3), (1, c3)],
        }
        for name, terms in elements.items():
            text = rk.element_text([(c, s(f"{name}/{i}", t)) for i, (c, t) in enumerate(terms)])
            self.files[name] = _write(root, name + ".elem", text)
        for name, _ in RING_SETUP:
            execute(cli(ws, "burnside", self.files[name], check=pinned("burnside/" + name, _element)))
        execute(cli(ws, "mul", self.files["x0"], self.files["y0"], check=pinned("mul/setup", _element)))

    def commands(self, pass_dir):
        ws = os.path.join(pass_dir, "ws")
        shutil.copytree(self.pristine, ws)
        f = self.files
        return [
            cli(ws, "registry", check=pinned("registry/setup", _registry)),
            *(
                cli(ws, "burnside", f[name], check=pinned("burnside/" + name, _element))
                for name, _ in RING_NEW
            ),
            cli(ws, "mul", f["x"], f["y"], "-o", os.path.join(pass_dir, "xy.elem"),
                check=pinned("mul/pass", _element)),
            cli(ws, "registry", check=pinned("registry/pass", _registry)),
            cli(ws, "marks", f["d3"], f["conj-s5"], check=pinned("marks/d3->conj-s5")),
            cli(ws, "marks", f["d5"], f["d5xd5"], check=pinned("marks/d5->d5xd5")),
            cli(ws, "color", f["trefoil"], f["conj-s5"], check=lambda r: r == {"colorings": 600}),
            cli(ws, "color", f["trefoil"], f["d97"], check=lambda r: r == {"colorings": 97}),
        ]


WORKLOADS = {w.name: w for w in (Census, Iso, Ring)}
