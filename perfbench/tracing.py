"""Per-layer metrics from in-process replays of one workload pass.

After one set-up through the CLI, the run replays the workload's command
list in-process through `rackring.cli.main(argv)` three times: once
untraced, then twice traced at the same seed.  Tracing wraps each layer's
public functions at every binding, the defining module and each module that
imported the name, and records one span per call in memory: name, start,
end, parent span and run id.  It edits no source file.  The spans are
written to `.perfbench-out/` when the run ends.

A layer's `busy_s` is the time during which a call into the layer was open
(the summed duration of its spans that have no ancestor in the same layer);
a span's self time is its duration minus the time its child spans cover.
The two traced passes must agree on every count.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import io
import os
import signal
import statistics
import sys
import traceback
from array import array
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter, perf_counter_ns

from harness import COMMAND_TIMEOUT_S, Cli, Outcome, check_report, run_pass, set_up
from inputs import rack_text, trivial
from workloads import cli

LAYERS = ("perms", "racks", "structure", "canonical", "enumeration", "burnside", "marks", "groups", "cli")
# Permutation arithmetic is reached through operators, and it is most of `crossed`.
TRACED_DUNDERS = {"Perm": ("__mul__", "__pow__")}
# Table lookups reached about a million times per pass: a span each would
# cost several times the call.  Their time is self time of their callers.
UNTRACED = {"racks.RackTable.apply", "groups.FinGroup.mul", "groups.FinGroup.inv", "groups.FinGroup.conj"}
STARTUP_PROBES = 5


def _save_ring_before(args):
    tables = args[0].tables_dir
    return set(os.listdir(tables)) if os.path.isdir(tables) else set()


def _save_ring_bytes(args, _result, before):
    """Bytes save_ring wrote: it rewrites both index files and adds missing sidecars."""
    ws = args[0]
    added = set(os.listdir(ws.tables_dir)) - before
    paths = [ws.registry_file, ws.products_file] + [os.path.join(ws.tables_dir, name) for name in added]
    return sum(os.path.getsize(p) for p in paths)


# Counts taken at a boundary: name -> (before(args) or None, after(args, result, before)).
PROBES = {
    "canonical.automorphisms": (None, lambda args, result, _: len(result)),
    "enumeration.enumerate_racks": (None, lambda args, result, _: len(result)),
    "marks.enumerate_morphisms": (None, lambda args, result, _: len(result)),
    "marks.colorings": (None, lambda args, result, _: result),
    # (basis products requested, memo entries added)
    "burnside.BurnsideRing.mul": (
        lambda args: len(args[0].product_memo),
        lambda args, _result, before: (len(args[1]) * len(args[2]), len(args[0].product_memo) - before),
    ),
    "cli.Workspace.save_ring": (_save_ring_before, _save_ring_bytes),
}

# name -> unit; "count" and "bytes" metrics must repeat exactly between traced passes
METRICS = {
    "canonical.calls": "count",
    "canonical.busy_s": "s",
    "canonical.max_call_s": "s",
    "canonical.automorphisms": "count",
    "canonical.automorphisms_s": "s",
    "canonical.orbit_tests": "count",
    "canonical.orbit_tests_s": "s",
    "enumeration.busy_s": "s",
    "enumeration.search_s": "s",
    "enumeration.emitted": "count",
    "enumeration.classes": "count",
    "enumeration.useful_ratio": "ratio",
    "burnside.register_calls": "count",
    "burnside.register_s": "s",
    "burnside.merge_calls": "count",
    "burnside.merge_s": "s",
    "burnside.mul_s": "s",
    "burnside.basis_products": "count",
    "burnside.memo_hit_ratio": "ratio",
    "cli.startup_s": "s",
    "cli.load_s": "s",
    "cli.save_s": "s",
    "cli.bytes_written": "bytes",
    "marks.morphisms": "count",
    "marks.morphism_s": "s",
    "marks.census_s": "s",
    "marks.colorings": "count",
    "marks.coloring_s": "s",
    "structure.calls": "count",
    "structure.busy_s": "s",
    "racks.busy_s": "s",
    "perms.busy_s": "s",
    "groups.busy_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Wraps the layers' public functions and records spans in flat arrays."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("q")
        self.end = array("q")
        self.values = {}  # span index -> count recorded by a probe
        self.stack = [-1]
        self.run_id = 0
        self.patches = []

    def wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        before, after = PROBES.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before else None
            index = len(self.span_name)
            self.span_name.append(name_id)
            self.parent.append(self.stack[-1])
            self.run.append(self.run_id)
            self.end.append(0)
            self.stack.append(index)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter_ns()
                self.stack.pop()
            if after:
                self.values[index] = after(args, result, state)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "rackring" or key.startswith("rackring.")]
        for layer in LAYERS:
            module = importlib.import_module("rackring." + layer)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    traced = self.wrap(f"{layer}.{attr}", obj)
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is obj:
                                self._patch(m, key, traced)
                elif inspect.isclass(obj):
                    self._install_methods(layer, obj)

    def _install_methods(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in UNTRACED or (attr.startswith("_") and attr not in TRACED_DUNDERS.get(cls.__name__, ())):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self.wrap(name, raw))

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def write(self, path):
        """Gzipped lines, one per span: index, run, parent, name, start ns, end ns, probe value."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\trun\tparent\tname\tstart_ns\tend_ns\tvalue\n")
            for i, name_id in enumerate(self.span_name):
                fh.write(f"{i}\t{self.run[i]}\t{self.parent[i]}\t{self.names[name_id]}\t"
                         f"{self.start[i]}\t{self.end[i]}\t{self.values.get(i, '')}\n")

    def metrics(self, run_id):
        """Per-layer metrics of one traced pass (all but startup and overhead).

        A function missing from the program reads as never called.
        """
        lo = self.run.index(run_id)  # a pass's spans are contiguous: passes run in turn
        hi = lo + self.run.count(run_id)
        bit = {layer: 1 << k for k, layer in enumerate(LAYERS)}
        layer_of = [name.split(".", 1)[0] for name in self.names]
        count, seconds, longest = Counter(), defaultdict(float), defaultdict(float)
        values = defaultdict(list)
        calls, busy = Counter(), defaultdict(float)
        around = array("H", bytes(2 * (hi - lo)))  # bitmask of the layers open around each span
        covered = array("d", bytes(8 * (hi - lo)))  # time covered by each span's children
        emitted = 0
        for i in range(lo, hi):  # parents precede their children
            name, layer, p = self.names[self.span_name[i]], layer_of[self.span_name[i]], self.parent[i]
            dur = (self.end[i] - self.start[i]) / 1e9
            count[name] += 1
            seconds[name] += dur
            longest[name] = max(longest[name], dur)
            if i in self.values:
                values[name].append(self.values[i])
            if p >= 0:
                parent_layer = layer_of[self.span_name[p]]
                around[i - lo] = around[p - lo] | bit[parent_layer]
                covered[p - lo] += dur
                emitted += name == "canonical.canonical_form" and parent_layer == "enumeration"
            if not around[i - lo] & bit[layer]:
                calls[layer] += 1
                busy[layer] += dur
        search = sum((self.end[i] - self.start[i]) / 1e9 - covered[i - lo]  # self time
                     for i in range(lo, hi) if self.names[self.span_name[i]] == "enumeration.enumerate_racks")
        classes = sum(values["enumeration.enumerate_racks"])
        requested = sum(v[0] for v in values["burnside.BurnsideRing.mul"])
        added = sum(v[1] for v in values["burnside.BurnsideRing.mul"])
        return {
            "canonical.calls": count["canonical.canonical_form"],
            "canonical.busy_s": busy["canonical"],
            "canonical.max_call_s": longest["canonical.canonical_form"],
            "canonical.automorphisms": sum(values["canonical.automorphisms"]),
            "canonical.automorphisms_s": seconds["canonical.automorphisms"],
            "canonical.orbit_tests": count["canonical.has_automorphism_mapping"],
            "canonical.orbit_tests_s": seconds["canonical.has_automorphism_mapping"],
            "enumeration.busy_s": busy["enumeration"],
            "enumeration.search_s": search,
            "enumeration.emitted": emitted,
            "enumeration.classes": classes,
            "enumeration.useful_ratio": classes / emitted if emitted else 0.0,
            "burnside.register_calls": count["burnside.ClassRegistry.register"],
            "burnside.register_s": seconds["burnside.ClassRegistry.register"],
            "burnside.merge_calls": count["burnside.ClassRegistry.merge_entry"],
            "burnside.merge_s": seconds["burnside.ClassRegistry.merge_entry"],
            "burnside.mul_s": seconds["burnside.BurnsideRing.mul"],
            "burnside.basis_products": requested,
            "burnside.memo_hit_ratio": (requested - added) / requested if requested else 0.0,
            "cli.load_s": seconds["cli.Workspace.load_ring"],
            "cli.save_s": seconds["cli.Workspace.save_ring"],
            "cli.bytes_written": sum(values["cli.Workspace.save_ring"]),
            "marks.morphisms": sum(values["marks.enumerate_morphisms"]),
            "marks.morphism_s": seconds["marks.enumerate_morphisms"],
            "marks.census_s": seconds["marks.census"],
            "marks.colorings": sum(values["marks.colorings"]),
            "marks.coloring_s": seconds["marks.colorings"],
            "structure.calls": calls["structure"],
            "structure.busy_s": busy["structure"],
            "racks.busy_s": busy["racks"],
            "perms.busy_s": busy["perms"],
            "groups.busy_s": busy["groups"],
        }


class CommandTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise CommandTimeout()


class InProcess:
    """Runs commands through `rackring.cli.main(argv)` in this process."""

    def __init__(self, cli_module):
        self.cli = cli_module
        self.outcomes = []

    def __call__(self, cmd) -> Outcome:
        out = io.StringIO()
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, COMMAND_TIMEOUT_S)
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = self.cli.main(cmd.argv)
        except CommandTimeout:
            code = None
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed command, and the replay goes on
            traceback.print_exc()
            code = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = perf_counter() - start
        ok = code is not None and check_report(cmd, code, out.getvalue())
        if not ok:
            print(f"FAILED in-process {' '.join(cmd.argv[3:])}", file=sys.stderr)
        outcome = Outcome(cmd.sub, wall, 0.0, 0.0, ok)
        self.outcomes.append(outcome)
        return outcome


def measure(workload_cls, work, src, seed):
    """The traced run: per-layer metrics, and whether both traced passes agree on every count."""
    cli_run = Cli(src, work)
    workload, root, _ = set_up(workload_cls, work, seed, cli_run)
    point = os.path.join(work, "point.rack")
    with open(point, "w", encoding="utf-8") as fh:
        fh.write(rack_text(trivial(1)))
    probe = cli(os.path.join(work, "ws"), "validate", point, check=lambda r: r["order"] == 1)
    startup = statistics.median(cli_run(probe).wall for _ in range(STARTUP_PROBES))

    sys.path.insert(0, src)
    os.environ.pop("RACKRING_WORKSPACE", None)
    import rackring.cli

    in_process = InProcess(rackring.cli)
    untraced, _ = run_pass(workload, root, in_process)
    tracer = Tracer()
    tracer.install()
    walls = []
    try:
        for run_id in (1, 2):
            tracer.run_id = run_id
            walls.append(run_pass(workload, root, in_process)[0])
    finally:
        tracer.uninstall()
    first, second = tracer.metrics(1), tracer.metrics(2)
    repeated = all(first[k] == second[k] for k, unit in METRICS.items() if unit in ("count", "bytes"))
    if not repeated:
        print("count metrics differ between the two traced passes", file=sys.stderr)
    metrics = {k: (v if METRICS[k] in ("count", "bytes") else (v + second[k]) / 2) for k, v in first.items()}
    metrics["cli.startup_s"] = startup
    metrics["trace.overhead_ratio"] = statistics.median(walls) / untraced
    os.makedirs(".perfbench-out", exist_ok=True)
    tracer.write(os.path.join(".perfbench-out", f"{workload_cls.name}.spans.tsv.gz"))
    print(f"in-process pass: untraced {untraced:.3f} s, traced {walls[0]:.3f} s and {walls[1]:.3f} s; "
          f"{len(tracer.run)} spans")
    for name, value in metrics.items():
        print(f"{name:>26} {value:14.4f} {METRICS[name]}")
    outcomes = cli_run.outcomes + in_process.outcomes
    failed = sum(not o.ok for o in outcomes)
    return failed == 0 and repeated, len(outcomes), failed, {k: (metrics[k], METRICS[k]) for k in METRICS}
