"""Call tracing for the traced benchmark run (`--trace 1`).

The tracer wraps the public functions and public methods of every effdom
module from outside the package: it rebinds each wrapped name in every
effdom namespace that bound it (so `hamming_graph` is wrapped in
`graphs`, `hamming`, `cli` and the package itself) and replaces methods
such as `GF.mul` and `MCoverPlan.fibre_of` on their class.

Every call records its inclusive and self time.  A layer's self time is
the duration of its calls minus the part covered by calls into other
wrapped functions.  A span (id, parent id, name, start, end) is kept in
memory for every call except field operations, which run millions of
times a job and are only counted; the spans are written out when the
benchmark ends.  Named groups of functions give the per-layer times
(counted once, at the outermost call of the group), and a few counters
read arguments or results, such as search nodes or bytes of JSON.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from time import perf_counter

MODULES = (
    "cli", "domination", "fields", "graphs", "hamming", "jsonio",
    "linalg", "partitions", "search", "spectral",
)

# Modules whose calls are counted but get no span.
NO_SPAN_MODULES = frozenset({"fields"})

# Spans kept per child process; later calls are still timed and counted.
SPAN_CAP = 200_000

# Per-layer time groups: the inclusive time of the outermost call of any
# function in the group.  Keys are "<module>.<qualified name>".
GROUPS = {
    "hamming.label_s": ("hamming.MCoverPlan.fibre_of",),
    "hamming.plan_s": ("hamming.feasibility", "hamming.build_plan",
                       "hamming.hamming_code", "hamming.basis_audit"),
    "graphs.build_s": ("graphs.complete", "graphs.cycle", "graphs.complete_bipartite",
                       "graphs.hamming_graph", "graphs.folded_cube", "graphs.cayley_graph"),
    "graphs.validate_s": ("graphs.Graph.validate",),
    "graphs.dense_s": ("graphs.adjacency_matrix", "graphs.adjacency_plus_identity"),
    "jsonio.load_s": ("jsonio.load_json",),
    "jsonio.dump_s": ("jsonio.dump_json",),
    "domination.verify_s": ("domination.verify_efficient", "domination.verify_dominating"),
    "partitions.cells_s": ("partitions.canonical_cells", "partitions.cells_from_labels"),
    "partitions.cover_s": ("partitions.verify_cover", "partitions.verify_kcover"),
    "partitions.quotient_s": ("partitions.characteristic_matrix",),
    "linalg.int_kernel_s": ("linalg.int_kernel_basis", "linalg.int_rank"),
    "linalg.char_poly_s": ("linalg.char_poly",),
    "linalg.field_s": ("linalg.rref", "linalg.field_rank", "linalg.kernel_basis",
                       "linalg.solve_affine", "linalg.mat_vec", "linalg.mat_mul"),
    "search.s": ("search.enumerate_efficient", "search.exists_efficient", "search.k_spectrum"),
    "search.enumerate_s": ("search.enumerate_efficient",),
}


def _adj_entries(graph) -> int:
    return sum(len(row) for row in graph.adjacency)


# Counters: function key -> ((counter name, f(bound arguments, result) -> int), ...).
_ADJ = (("graphs.adj_entries", lambda a, r: _adj_entries(r)),)
COUNTERS = {
    "hamming.verify_plan": (("hamming.sampled_vertices", lambda a, r: a["sample"] or 0),),
    "jsonio.load_json": (("jsonio.bytes_in", lambda a, r: os.path.getsize(a["path"])),),
    "jsonio.dump_json": (("jsonio.bytes_out", lambda a, r: len(r.encode("utf-8"))),),
    "jsonio.graph_from_doc": _ADJ,
    "domination.verify_efficient": (("domination.vertices", lambda a, r: a["x"].n),),
    "domination.verify_dominating": (("domination.vertices", lambda a, r: a["x"].n),),
    "linalg.int_kernel_basis": (("linalg.kernel_dim", lambda a, r: len(r)),),
    "search.enumerate_efficient": (("search.nodes", lambda a, r: r.nodes),
                                   ("search.solutions", lambda a, r: r.count)),
    **{key: _ADJ for key in GROUPS["graphs.build_s"]},
}


class Tracer:
    """Wraps effdom's public callables and accumulates their timings."""

    def __init__(self) -> None:
        self.funcs = {}      # key -> [calls, calls from another module, self seconds]
        self.groups = {}     # group name -> inclusive s
        self.counters = {}   # counter name -> int
        self.spans = []      # (span id, parent id, key, start, end)
        self.dropped = 0
        self._stack = []     # frames: [span id, module, child seconds]
        self._depth = {}
        self._next_id = 1

    def _wrap(self, fn, key: str):
        tracer = self
        module = key.split(".", 1)[0]
        stat = self.funcs.setdefault(key, [0, 0, 0.0])
        groups = tuple(g for g, keys in GROUPS.items() if key in keys)
        keep_span = module not in NO_SPAN_MODULES
        counters = COUNTERS.get(key, ())
        signature = inspect.signature(fn) if counters else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, module, 0.0]
            stack.append(frame)
            depth = tracer._depth
            for g in groups:
                depth[g] = depth.get(g, 0) + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                if parent is None or parent[1] != module:
                    stat[1] += 1
                stat[2] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                for g in groups:
                    depth[g] -= 1
                    if depth[g] == 0:
                        tracer.groups[g] = tracer.groups.get(g, 0.0) + dur
                if keep_span:
                    if len(tracer.spans) < SPAN_CAP:
                        tracer.spans.append((sid, parent[0] if parent else 0, key, t0, t1))
                    else:
                        tracer.dropped += 1
            if counters:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for name, read in counters:
                    tracer.counters[name] = tracer.counters.get(name, 0) + read(bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function and method of the effdom modules."""
        package = importlib.import_module("effdom")
        modules = [importlib.import_module(f"effdom.{name}") for name in MODULES]
        wrapped = {}  # id(original) -> wrapper
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{short}.{name}")
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            setattr(obj, attr, self._wrap(member, f"{short}.{name}.{attr}"))
        for mod in [package, *modules]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])

    def export(self) -> dict:
        return {
            "funcs": self.funcs,
            "groups": self.groups,
            "counters": self.counters,
            "spans": self.spans,
            "dropped": self.dropped,
        }


# Per-layer metrics: name -> (unit, better).  Derived per pass by layer_metrics.
PER_LAYER = {
    **{f"{m}.self_s": ("s", "lower") for m in MODULES},
    "fields.ops": ("count", "lower"),
    "hamming.label_calls": ("count", "lower"),
    "hamming.label_s": ("s", "lower"),
    "hamming.plan_s": ("s", "lower"),
    "hamming.sampled_vertices": ("count", "lower"),
    "graphs.build_s": ("s", "lower"),
    "graphs.validate_s": ("s", "lower"),
    "graphs.adj_entries": ("count", "lower"),
    "graphs.dense_s": ("s", "lower"),
    "jsonio.load_s": ("s", "lower"),
    "jsonio.dump_s": ("s", "lower"),
    "jsonio.bytes_in": ("B", "lower"),
    "jsonio.bytes_out": ("B", "lower"),
    "domination.verify_s": ("s", "lower"),
    "domination.vertices": ("count", "lower"),
    "partitions.cells_s": ("s", "lower"),
    "partitions.cover_s": ("s", "lower"),
    "partitions.quotient_s": ("s", "lower"),
    "linalg.int_kernel_s": ("s", "lower"),
    "linalg.char_poly_s": ("s", "lower"),
    "linalg.field_s": ("s", "lower"),
    "linalg.kernel_dim": ("count", "lower"),
    "search.nodes": ("count", "lower"),
    "search.s": ("s", "lower"),
    "search.nodes_per_s": ("1/s", "higher"),
    "search.solutions_per_node": ("ratio", "higher"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def merge(exports) -> dict:
    """Sum the exports of the jobs of one pass."""
    funcs, groups, counters = {}, {}, {}
    spans = 0
    for ex in exports:
        for key, stat in ex["funcs"].items():
            acc = funcs.setdefault(key, [0, 0, 0.0])
            for i, value in enumerate(stat):
                acc[i] += value
        for name, value in ex["groups"].items():
            groups[name] = groups.get(name, 0.0) + value
        for name, value in ex["counters"].items():
            counters[name] = counters.get(name, 0) + value
        spans += len(ex["spans"]) + ex["dropped"]
    return {"funcs": funcs, "groups": groups, "counters": counters, "spans": spans}


def layer_metrics(merged: dict) -> dict:
    """Per-layer values of one traced pass, except the tracing overhead."""
    funcs, groups, counters = merged["funcs"], merged["groups"], merged["counters"]
    out = {f"{m}.self_s": 0.0 for m in MODULES}
    for key, (_, _, self_s) in funcs.items():
        out[key.split(".", 1)[0] + ".self_s"] += self_s
    out["fields.ops"] = sum(st[1] for key, st in funcs.items() if key.startswith("fields."))
    out["hamming.label_calls"] = funcs.get("hamming.MCoverPlan.fibre_of", [0])[0]
    for name in GROUPS:
        if name in PER_LAYER:
            out[name] = groups.get(name, 0.0)
    for name in ("hamming.sampled_vertices", "graphs.adj_entries", "jsonio.bytes_in",
                 "jsonio.bytes_out", "domination.vertices", "linalg.kernel_dim", "search.nodes"):
        out[name] = counters.get(name, 0)
    nodes = counters.get("search.nodes", 0)
    enum_s = groups.get("search.enumerate_s", 0.0)
    out["search.nodes_per_s"] = nodes / enum_s if enum_s > 0 else 0.0
    out["search.solutions_per_node"] = counters.get("search.solutions", 0) / nodes if nodes else 0.0
    out["trace.spans"] = merged["spans"]
    return out
