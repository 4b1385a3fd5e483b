"""Parsing and serialization of the structured input files.

Graph file:      {"vertices": 4, "plus": [[1,2]], "minus": [[3,4]]}
Digraph file:    {"vertices": 3, "arcs": [[1,2],[2,1]]}
Spec file:       {"k": 1, "n": [0,0,0], "graph": {...graph file...}}
                 (the graph fields may also sit at the top level)
Arrangement:     {"dim": 3, "hyperplanes": [{"normal": [1,-1,0], "mult": 2}]}
                 (normal entries are integers or "p/q" strings)

Pairs with equal endpoints and duplicated pairs are rejected, and so are
JSON booleans wherever an integer is required, a ``normal`` that is not a
list, and a vertex count above ``MAX_FILE_VERTICES`` (checked before any
graph storage is allocated).
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .graphs import DirectedGraph, EdgeBicoloredGraph, MINUS, PLUS
from .multibraid import MultiBraidSpec
from .oracle import MultiArrangement


# the largest graph or digraph file read; a graph holds an (n+1)^2 color matrix
MAX_FILE_VERTICES = 64


class InputError(ValueError):
    """Malformed input file or arguments (CLI exit code 2)."""


def _is_int(x) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _load_obj(source) -> dict:
    if isinstance(source, dict):
        return source
    if not isinstance(source, (str, os.PathLike)):
        raise InputError(f"expected a JSON object or a file path, got {source!r}")
    try:
        with open(source, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {source}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{source} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{source} is nested too deeply") from exc
    if not isinstance(obj, dict):
        raise InputError(f"{source}: expected a JSON object")
    return obj


def _pairs(obj, field) -> list[tuple[int, int]]:
    raw = obj.get(field, [])
    if not isinstance(raw, list):
        raise InputError(f"field {field!r} must be a list of pairs")
    out = []
    for item in raw:
        if (not isinstance(item, (list, tuple)) or len(item) != 2
                or not all(_is_int(x) for x in item)):
            raise InputError(f"field {field!r} holds a malformed pair: {item!r}")
        out.append((item[0], item[1]))
    return out


def _vertex_count(obj, kind) -> int:
    n = obj.get("vertices")
    if not _is_int(n):
        raise InputError(f"{kind} file needs an integer 'vertices' field")
    if n > MAX_FILE_VERTICES:
        raise InputError(f"{kind} file has {n} vertices; at most {MAX_FILE_VERTICES} are supported")
    return n


def load_graph(source) -> EdgeBicoloredGraph:
    obj = _load_obj(source)
    n = _vertex_count(obj, "graph")
    try:
        return EdgeBicoloredGraph.from_edges(
            n, plus=_pairs(obj, "plus"), minus=_pairs(obj, "minus"))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def load_digraph(source) -> DirectedGraph:
    obj = _load_obj(source)
    n = _vertex_count(obj, "digraph")
    try:
        return DirectedGraph.from_arcs(n, _pairs(obj, "arcs"))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def load_spec(source) -> MultiBraidSpec:
    obj = _load_obj(source)
    nested = obj.get("graph", obj)
    if not isinstance(nested, dict):
        raise InputError("'graph' must be a JSON object")
    graph = load_graph(nested)
    k = obj.get("k", 0)
    n = obj.get("n", [0] * graph.n)
    if not _is_int(k):
        raise InputError("'k' must be an integer")
    if not isinstance(n, (list, tuple)) or not all(_is_int(x) for x in n):
        raise InputError("'n' must be a list of integers")
    try:
        return MultiBraidSpec(k, tuple(n), graph)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def parse_rational(x) -> Fraction:
    if _is_int(x):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational {x!r}") from exc
    raise InputError(f"bad rational {x!r} (use integers or 'p/q' strings)")


def load_arrangement(source) -> MultiArrangement:
    obj = _load_obj(source)
    dim = obj.get("dim")
    if not _is_int(dim):
        raise InputError("arrangement file needs an integer 'dim' field")
    raw = obj.get("hyperplanes")
    if not isinstance(raw, list) or not raw:
        raise InputError("arrangement file needs a nonempty 'hyperplanes' list")
    items = []
    for h in raw:
        if not isinstance(h, dict) or "normal" not in h or "mult" not in h:
            raise InputError(f"malformed hyperplane entry: {h!r}")
        if not isinstance(h["normal"], list):
            raise InputError(f"hyperplane 'normal' must be a list, got {h['normal']!r}")
        normal = [parse_rational(x) for x in h["normal"]]
        if not _is_int(h["mult"]):
            raise InputError("hyperplane 'mult' must be an integer")
        items.append((normal, h["mult"]))
    try:
        return MultiArrangement.build(dim, items)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def graph_to_obj(g: EdgeBicoloredGraph) -> dict:
    return {
        "vertices": g.n,
        "plus": [list(e) for e in g.edges(PLUS)],
        "minus": [list(e) for e in g.edges(MINUS)],
    }


def digraph_to_obj(g: DirectedGraph) -> dict:
    return {"vertices": g.n, "arcs": [list(a) for a in sorted(g.arcs)]}


def spec_to_obj(spec: MultiBraidSpec) -> dict:
    return {"k": spec.k, "n": list(spec.n), "graph": graph_to_obj(spec.graph)}
