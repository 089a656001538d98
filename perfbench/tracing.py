"""Span tracing around the calls into each boolweyl layer.

Nothing inside the package changes: `install` replaces every binding of
each traced function (the module attribute, each `from ... import`
copy in other modules, entries of module-level tables such as
setfam.PRODUCTS, and the ColumnSolver methods) with a wrapper that
records a span.  Spans (name, start, end, parent) stay in memory and
are written out when the run ends; `layer_metrics` folds them into the
per-layer metrics that BENCHMARK.json names.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import defaultdict

TRACED = {
    "cli": ("main",),
    "lang": (
        "parse_text",
        "infer_context",
        "is_classical",
        "eval_classical",
        "entails_classical",
        "eval_quantum",
        "entails_quantum",
        "entailment_witness",
        "equivalent",
    ),
    "ring": ("ring_mul", "ring_add", "convert_ring_basis"),
    "gf2lin": ("mat_mul", "solve_right", "gf2_rank", "mat_apply", "matrix_to_text"),
    "diffops": (
        "multiplication_matrix",
        "derivative_power_matrix",
        "shift_power_matrix",
        "apply_coeffs",
        "rep_matrix",
    ),
    "bweyl": ("op_mul", "to_matrix", "convert_op_basis", "op_add"),
}
CACHED = ("diffops.derivative_power_matrix", "diffops.shift_power_matrix")
SET_PRODUCTS = ("circ", "bullet", "star", "ast")
CHECKS = (
    "transform_involutions",
    "bases_identities",
    "ring_product",
    "covering_parity",
    "generator_relations",
    "generator_commutations",
    "operator_span_rank",
    "derivative_closed_forms",
    "rep_matrices",
    "coordinate_application",
    "product_homomorphism",
    "basis_roundtrips",
    "product_unit_associativity",
    "monomial_product_forms",
    "family_coherence",
    "family_sum_distributes",
    "rewrite_soundness",
    "parser_roundtrip",
    "normalize",
    "entailment",
)


class Tracer:
    """Spans in four parallel arrays: name id, start and end (ns), parent index."""

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}
        self.name, self.parent = array("i"), array("i")
        self.start, self.end = array("q"), array("q")
        self.stack: list[int] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.caches: dict[str, tuple] = {}

    def wrap(self, label, fn, namer=None, on_call=None):
        ids, stack, clock = self.ids, self.stack, time.perf_counter_ns
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        fixed = ids.setdefault(label, len(ids))

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = len(starts)
            names.append(fixed if namer is None else ids.setdefault(namer(args), len(ids)))
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def begin(self, label):
        """Open a root span by hand (one per operation); returns its index."""
        idx = len(self.start)
        self.name.append(self.ids.setdefault(label, len(self.ids)))
        self.parent.append(-1)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def end_span(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def save(self, path, ops):
        """Write the spans: a JSON header and the four arrays, gzip-compressed."""
        header = {
            "names": list(self.ids),
            "count": len(self.start),
            "layout": "int32 name[count], int32 parent[count], int64 start_ns[count], int64 end_ns[count]",
            "ops": ops,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            with gzip.GzipFile(fileobj=fh, mode="wb", compresslevel=1) as body:
                for arr in (self.name, self.parent, self.start, self.end):
                    arr.tofile(body)

    @classmethod
    def load(cls, path):
        """The tracer and the operation list (span index, n, command) of a spans file."""
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            body = gzip.decompress(fh.read())
        tracer = cls()
        tracer.ids = {name: i for i, name in enumerate(header["names"])}
        offset = 0
        for arr in (tracer.name, tracer.parent, tracer.start, tracer.end):
            size = arr.itemsize * header["count"]
            arr.frombytes(body[offset : offset + size])
            offset += size
        return tracer, header["ops"]


def _rebind(orig, wrapper):
    """Point every binding of `orig` in the loaded package at `wrapper`."""
    for name, module in list(sys.modules.items()):
        if name != "boolweyl" and not name.startswith("boolweyl."):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapper)
            elif isinstance(value, dict):
                for key, entry in value.items():
                    if isinstance(entry, tuple) and any(e is orig for e in entry):
                        value[key] = tuple(wrapper if e is orig else e for e in entry)


def install(tracer: Tracer) -> None:
    import boolweyl.checks as checks
    import boolweyl.cli  # noqa: F401  (loads every layer)
    import boolweyl.gf2lin as gf2lin
    import boolweyl.setfam as setfam

    def count_terms(args):
        tracer.counts["bweyl.to_matrix.terms"] += len(args[0].terms)

    for module_name, functions in TRACED.items():
        module = sys.modules["boolweyl." + module_name]
        for fname in functions:
            orig = getattr(module, fname)
            label = f"{module_name}.{fname}"
            namer = on_call = None
            if label == "bweyl.op_mul":
                namer = lambda args: "bweyl.op_mul." + args[0].basis  # noqa: E731
            elif label == "bweyl.to_matrix":
                on_call = count_terms
            if label in CACHED:
                tracer.caches[label] = (orig, orig.cache_info())
            _rebind(orig, tracer.wrap(label, orig, namer, on_call))
    for kind in SET_PRODUCTS:
        for suffix, label in (("_prod", "setfam.products"), ("_act", "setfam.actions")):
            orig = getattr(setfam, kind + suffix)
            _rebind(orig, tracer.wrap(label, orig))
    for check in CHECKS:
        orig = getattr(checks, "check_" + check)
        _rebind(orig, tracer.wrap(f"checks.{check}", orig))
    for method in ("__init__", "solve"):
        orig = getattr(gf2lin.ColumnSolver, method)
        setattr(gf2lin.ColumnSolver, method, tracer.wrap("gf2lin.ColumnSolver", orig))


def self_times(tracer: Tracer):
    """Per span: its duration minus its children's (ns), and its root span."""
    parents, starts, ends = tracer.parent, tracer.start, tracer.end
    own = array("q", (ends[i] - starts[i] for i in range(len(starts))))
    root = array("i", range(len(starts)))
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[i] - starts[i]
            root[i] = root[p]
    return own, root


def fold(tracer: Tracer):
    """Per span name: [self ns, inclusive ns, calls]."""
    own, _ = self_times(tracer)
    by_id = [[0, 0, 0] for _ in tracer.ids]
    for i, name in enumerate(tracer.name):
        entry = by_id[name]
        entry[0] += own[i]
        entry[1] += tracer.end[i] - tracer.start[i]
        entry[2] += 1
    return {name: by_id[i] for name, i in tracer.ids.items()}


def layer_metrics(tracer: Tracer, import_ms: float, names) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json named in `names`."""
    stats = fold(tracer)
    zero = [0, 0, 0]
    metrics: dict[str, float] = {"cli.import_ms": import_ms}
    for metric in names:
        if metric in metrics:
            continue
        stem, _, kind = metric.rpartition(".")
        if kind == "self_ms":
            metrics[metric] = stats.get(stem, zero)[0] / 1e6
        elif kind == "ms":  # a check's inclusive time
            metrics[metric] = stats.get(stem, zero)[1] / 1e6
        elif kind == "calls":
            # op_mul spans are named by basis: bweyl.op_mul.XY, ...
            spans = [name for name in stats if name == stem or name.startswith(stem + ".")]
            metrics[metric] = float(sum(stats[name][2] for name in spans))
        elif kind == "terms":
            metrics[metric] = float(tracer.counts[metric])
        elif kind == "hit_ratio":
            orig, before = tracer.caches[stem]
            after = orig.cache_info()
            calls = (after.hits + after.misses) - (before.hits + before.misses)
            metrics[metric] = (after.hits - before.hits) / calls if calls else 0.0
    return metrics


def by_dimension(path):
    """Self ms per span name and per operation dimension n, from a spans file."""
    tracer, ops = Tracer.load(path)
    n_of_root = {idx: n for idx, n, _ in ops}
    names = list(tracer.ids)
    own, root = self_times(tracer)
    table: defaultdict[str, defaultdict[int, float]] = defaultdict(lambda: defaultdict(float))
    for i, name in enumerate(tracer.name):
        table[names[name]][n_of_root[root[i]]] += own[i] / 1e6
    return table


if __name__ == "__main__":
    # python3 perfbench/tracing.py perfbench/out/<run>.spans: self ms by layer and n
    table = by_dimension(sys.argv[1])
    dims = sorted({n for row in table.values() for n in row})
    print("span".ljust(34) + "".join(f"n={n}".rjust(10) for n in dims))
    for name in sorted(table, key=lambda k: -sum(table[k].values())):
        print(name.ljust(34) + "".join(f"{table[name].get(n, 0.0):10.1f}" for n in dims))
