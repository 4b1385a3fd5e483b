"""Spans at braidfree's module boundaries, recorded from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in every
braidfree namespace that binds it (the defining module only where listed in
``OWN_MODULE``), and ``restore`` puts the originals back.  A wrapper records
a span (name, start, end, parent, op) while an op is active and feeds the
counters in ``PROBES``.  ``layer_metrics`` turns spans and counters into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("braidfree", "braidfree.cli", "braidfree.deform", "braidfree.eliminate",
           "braidfree.fileio", "braidfree.graphs", "braidfree.linalg",
           "braidfree.multibraid", "braidfree.oracle")

TRACED = {
    "graphs": ("enumerate_classes",),
    "eliminate": ("find_ordering", "structurally_eliminable", "structural_check",
                  "is_eliminable", "tilde_degrees", "complete_filtration"),
    "multibraid": ("classify", "char_poly", "lmp2", "to_arrangement"),
    "deform": ("deformation_verdict",),
    "fileio": ("load_graph", "load_digraph", "load_spec", "load_arrangement",
               "graph_to_obj", "digraph_to_obj", "spec_to_obj"),
    "oracle": ("freeness_verdict",),
    "linalg": ("rank_of", "nullspace", "row_echelon", "fraction_determinant",
               "fraction_matrix_inverse"),
}
# Calls made inside the defining module are traced only for these, because
# the per-op call counts count them (is_eliminable -> structural_check,
# char_poly -> classify, the structural route -> find_ordering on subgraphs).
OWN_MODULE = {"eliminate.find_ordering", "eliminate.structural_check",
              "eliminate.structurally_eliminable", "multibraid.classify"}
METHODS = {"linalg.span_insert": ("braidfree.linalg", "ReducedSpan", "insert")}

STRUCTURAL = ("eliminate.structurally_eliminable", "eliminate.structural_check")
ORDERING = "eliminate.find_ordering"


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _rank_of(tracer, args, result):
    rows, ncols = args[0], args[1]
    tracer.count["linalg.rank_of.cells"] += len(rows) * ncols
    tracer.count["linalg.rank_of.nnz"] += sum(len(r) - r.count(0) for r in rows)


def _nullspace(tracer, args, result):
    tracer.count["linalg.nullspace.vectors"] += len(result)
    bits = max((abs(x).bit_length() for vec in result for x in vec), default=0)
    tracer.peak["linalg.kernel_coeff_bits"] = max(tracer.peak.get("linalg.kernel_coeff_bits", 0), bits)


def _span_insert(tracer, args, result):
    tracer.count["linalg.span_insert.useful"] += bool(result)


def _certificate(tracer, args, cert):
    tracer.count["oracle.degrees_scanned"] += len(cert.dimension_table)
    tracer.count["oracle.generators_found"] += len(cert.generator_degrees)
    tracer.count["oracle.kernel_generators"] += sum(1 for d in cert.generator_degrees if d)
    tracer.count["oracle.saito_fallbacks"] += cert.status == "Free" and cert.saito_point is None


PROBES = {"linalg.rank_of": _rank_of, "linalg.nullspace": _nullspace,
          "linalg.span_insert": _span_insert, "oracle.freeness_verdict": _certificate}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.spans: list = []          # [name id, start, end, parent index, op]
        self.stack: list[int] = []
        self.op = None
        self.count: Counter = Counter()
        self.peak: dict = {}
        self._saved: list = []

    def _wrap(self, name, fn):
        tracer = self
        probe = PROBES.get(name)
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            span = [nid, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.op]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer.stack.pop()
            if probe is not None:
                probe(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        mods = [sys.modules[m] for m in MODULES if m in sys.modules]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"braidfree.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                full = f"{layer}.{fname}"
                wrapper = self._wrap(full, original)
                for mod in mods:
                    if mod is home and full not in OWN_MODULE:
                        continue
                    if mod.__dict__.get(fname) is original:
                        self._saved.append((mod, fname, original))
                        setattr(mod, fname, wrapper)
        for full, (modname, cls_name, meth) in METHODS.items():
            cls = getattr(sys.modules.get(modname), cls_name, None)
            original = cls.__dict__.get(meth) if cls is not None else None
            if original is not None:
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(full, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def root(self, name: str, op, fn, *args):
        """Run fn(*args) as op ``op`` under a root span ``name``."""
        self.op = op
        try:
            return self._wrap(name, fn)(*args)
        finally:
            self.op = None

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "count": dict(self.count),
                "peak": self.peak}

    def merge(self, other: dict, op) -> None:
        """Add a dump from another process, as op ``op``."""
        remap = []
        for name in other["names"]:
            nid = self.name_id.setdefault(name, len(self.names))
            if nid == len(self.names):
                self.names.append(name)
            remap.append(nid)
        base = len(self.spans)
        for nid, start, end, parent, _ in other["spans"]:
            self.spans.append([remap[nid], start, end, parent + base if parent >= 0 else -1, op])
        self.count.update(other["count"])
        for key, value in other["peak"].items():
            self.peak[key] = max(self.peak.get(key, 0), value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], **self.dump()}, fh)


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer counts, busy (self) times and ratios from the recorded spans.

    Self time is a span's duration minus its child spans.  The two
    eliminability routes are timed inclusively, at their outermost calls: a
    find_ordering call made inside the structural route is structural work.
    """
    names = tracer.names
    spans = tracer.spans
    child = [0.0] * len(spans)
    in_structural = [False] * len(spans)
    structural_ids = {tracer.name_id.get(n) for n in STRUCTURAL}
    for idx, (nid, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            in_structural[idx] = in_structural[parent] or spans[parent][0] in structural_ids
    calls: Counter = Counter()
    busy: defaultdict = defaultdict(float)
    layer_self: defaultdict = defaultdict(float)
    route_calls: Counter = Counter()
    route_busy: defaultdict = defaultdict(float)
    for idx, (nid, start, end, parent, _) in enumerate(spans):
        name = names[nid]
        own = end - start - child[idx]
        calls[name] += 1
        busy[name] += own
        layer_self[name.split(".")[0]] += own
        if in_structural[idx]:
            continue
        if name in STRUCTURAL:
            route_calls["structural"] += 1
            route_busy["structural"] += end - start
        elif name == ORDERING:
            route_calls["ordering"] += 1
            route_busy["ordering"] += end - start
    count = tracer.count
    degrees = count["oracle.degrees_scanned"]
    eliminations = calls["linalg.rank_of"] + calls["linalg.nullspace"]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "graphs.enumerate_classes.calls": metric(calls["graphs.enumerate_classes"], "count"),
        "graphs.enumerate_classes.busy_s": metric(busy["graphs.enumerate_classes"], "s"),
        "eliminate.find_ordering.calls": metric(route_calls["ordering"], "count"),
        "eliminate.find_ordering.busy_s": metric(route_busy["ordering"], "s"),
        "eliminate.structural.calls": metric(route_calls["structural"], "count"),
        "eliminate.structural.busy_s": metric(route_busy["structural"], "s"),
        "eliminate.route_ratio": metric(ratio(route_busy["structural"], route_busy["ordering"]), "ratio"),
        "eliminate.structural_check.calls_per_op": metric(
            ratio(calls["eliminate.structural_check"], ops), "count/op"),
        "multibraid.classify.calls_per_op": metric(ratio(calls["multibraid.classify"], ops), "count/op"),
        "multibraid.self_s": metric(layer_self["multibraid"], "s"),
        "deform.deformation_verdict.busy_s": metric(busy["deform.deformation_verdict"], "s"),
        "fileio.busy_s": metric(layer_self["fileio"], "s"),
        "cli.self_s": metric(layer_self["cli"], "s"),
        "oracle.freeness_verdict.calls": metric(calls["oracle.freeness_verdict"], "count"),
        "oracle.self_s": metric(layer_self["oracle"], "s"),
        "oracle.degrees_scanned": metric(degrees, "count"),
        "oracle.generators_found": metric(count["oracle.generators_found"], "count"),
        "oracle.saito_fallbacks": metric(count["oracle.saito_fallbacks"], "count"),
        "linalg.rank_of.calls": metric(calls["linalg.rank_of"], "count"),
        "linalg.rank_of.busy_s": metric(busy["linalg.rank_of"], "s"),
        "linalg.nullspace.calls": metric(calls["linalg.nullspace"], "count"),
        "linalg.nullspace.busy_s": metric(busy["linalg.nullspace"], "s"),
        "linalg.nullspace.vectors": metric(count["linalg.nullspace.vectors"], "count"),
        "linalg.rank_of.cells": metric(count["linalg.rank_of.cells"], "count"),
        "linalg.rank_of.nnz": metric(count["linalg.rank_of.nnz"], "count"),
        "linalg.kernel_coeff_bits.max": metric(tracer.peak.get("linalg.kernel_coeff_bits", 0), "bits"),
        "linalg.eliminations_per_degree": metric(ratio(eliminations, degrees), "ratio"),
        "linalg.kernel_vectors_used_ratio": metric(
            ratio(count["oracle.kernel_generators"], count["linalg.nullspace.vectors"]), "ratio"),
        "linalg.span_insert.calls": metric(calls["linalg.span_insert"], "count"),
        "linalg.span_insert.busy_s": metric(busy["linalg.span_insert"], "s"),
        "linalg.span_insert.useful_ratio": metric(
            ratio(count["linalg.span_insert.useful"], calls["linalg.span_insert"]), "ratio"),
        "linalg.fraction_determinant.calls": metric(calls["linalg.fraction_determinant"], "count"),
        "linalg.fraction_determinant.busy_s": metric(busy["linalg.fraction_determinant"], "s"),
    }
    return out
