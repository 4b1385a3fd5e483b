"""Command-line surface: classify, census, oracle, deform.

Reports are JSON objects with a stable schema (command, inputs, result,
tool_version, seed) and are byte-identical across runs with the same inputs
and seed; ``--format table`` renders a human-readable view instead.

Exit codes: 0 for any mathematical verdict, 2 for input errors, 3 for an
internal failure (a bug, e.g. the two eliminability routes disagreeing, or a
``--jobs`` worker process dying).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from . import __version__
from .deform import DeformationSpec, deformation_verdict
from .eliminate import (complete_filtration, find_ordering, structural_check,
                        structurally_eliminable, tilde_degrees)
from .fileio import (InputError, digraph_to_obj, graph_to_obj, load_arrangement,
                     load_digraph, load_graph, load_spec, spec_to_obj)
from .graphs import EdgeBicoloredGraph, UnsupportedSizeError, enumerate_classes
from .multibraid import FREE, MultiBraidSpec, char_poly, classify, lmp2, to_arrangement
from .oracle import freeness_verdict

SAMPLING_CENSUS_VERTICES = 6
SAMPLING_CENSUS_SIZE = 10_000


def _structural_obj(report) -> dict:
    def witness(w):
        if w is None:
            return None
        obj = {"sigma": "plus" if w.sigma == 1 else "minus", "path": list(w.path)}
        if hasattr(w, "omega"):
            obj["omega"] = w.omega
        else:
            obj["omega1"] = w.omega1
            obj["omega2"] = w.omega2
        return obj

    return {
        "chordal_plus": report.chordal_plus,
        "chordal_minus": report.chordal_minus,
        "bad_quadruple": list(report.bad_quadruple) if report.bad_quadruple else None,
        "mountain": witness(report.mountain),
        "hill": witness(report.hill),
    }


def _verdict_obj(spec: MultiBraidSpec, verdict) -> dict:
    structural = verdict.witness or structural_check(spec.graph)
    return {
        "status": verdict.status,
        "condition": verdict.condition,
        "eliminable": verdict.ordering is not None,
        "ordering": list(verdict.ordering.ranks) if verdict.ordering else None,
        "tilde_degrees": list(verdict.tilde) if verdict.tilde else None,
        "exponents": list(verdict.exponents) if verdict.exponents else None,
        "structural": _structural_obj(structural),
        "exponent_offset": spec.exponent_offset,
        "multiplicity_sum": spec.multiplicity_sum,
    }


def _certificate_obj(cert) -> dict:
    return {
        "status": cert.status,
        "ambient_dim": cert.ambient_dim,
        "multiplicity_sum": cert.multiplicity_sum,
        "generator_degrees": list(cert.generator_degrees),
        "dimension_table": {str(d): v for d, v in sorted(cert.dimension_table.items())},
        "new_generator_table": {str(d): v for d, v in sorted(cert.new_generator_table.items())},
        "saito_point": [str(x) for x in cert.saito_point] if cert.saito_point else None,
        "seed": cert.seed,
        "budget": cert.budget,
        "note": cert.note,
    }


def cmd_classify(args) -> dict:
    graph = load_graph(args.graph)
    n = [int(x) for x in args.n.split(",")] if args.n else [0] * graph.n
    try:
        spec = MultiBraidSpec(args.k, tuple(n), graph)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    verdict = classify(spec)
    result = _verdict_obj(spec, verdict)
    result["lmp2"] = lmp2(spec)
    if verdict.status == FREE:
        result["char_poly_roots"] = list(char_poly(spec).roots)
        filtration = complete_filtration(graph, verdict.ordering)
        result["filtration"] = [list(edge) for edge, _ in filtration.added_edges]
    else:
        result["char_poly_roots"] = None
        result["filtration"] = None
    return {
        "inputs": {"graph": graph_to_obj(graph), "k": spec.k, "n": list(spec.n)},
        "result": result,
    }


def _census_row(payload) -> dict:
    key, digits, n, labeled, with_oracle, seed = payload
    graph = EdgeBicoloredGraph.from_digits(n, digits)
    nu = find_ordering(graph)
    if (nu is not None) != structurally_eliminable(graph):
        raise AssertionError("eliminability routes disagree on a census class")
    row = {
        "key": key,
        "graph": graph_to_obj(graph),
        "labeled_count": labeled,
        "eliminable": nu is not None,
        "tilde_degree_multiset": None,
    }
    if nu is not None:
        row["tilde_degree_multiset"] = sorted(tilde_degrees(graph, nu))
    if with_oracle:
        spec = MultiBraidSpec(1, (0,) * n, graph)
        cert = freeness_verdict(to_arrangement(spec), seed=seed)
        row["oracle"] = {
            "status": cert.status,
            "generator_degrees": list(cert.generator_degrees),
        }
        verdict = classify(spec)
        row["classifier_status"] = verdict.status
        if verdict.status != cert.status:
            raise AssertionError("oracle disagrees with the classifier on a census class")
    return row


def cmd_census(args) -> dict:
    include_swap = not args.no_swap
    if args.vertices <= 5:
        classes = enumerate_classes(args.vertices, include_swap=include_swap)
        payloads = [(c.canonical_key.hex(), c.representative.digits(), args.vertices,
                     c.labeled_count, args.oracle, args.seed) for c in classes]
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                rows = list(pool.map(_census_row, payloads, chunksize=4))
        else:
            rows = [_census_row(p) for p in payloads]
        eliminable = sum(1 for r in rows if r["eliminable"])
        return {
            "inputs": {"vertices": args.vertices, "include_swap": include_swap,
                       "oracle": args.oracle},
            "result": {
                "mode": "exhaustive",
                "classes": rows,
                "summary": {
                    "classes": len(rows),
                    "eliminable": eliminable,
                    "non_eliminable": len(rows) - eliminable,
                    "labeled_total": sum(r["labeled_count"] for r in rows),
                },
            },
        }
    if args.vertices == SAMPLING_CENSUS_VERTICES:
        rng = random.Random(args.seed)
        nslots = args.vertices * (args.vertices - 1) // 2
        eliminable = 0
        for _ in range(SAMPLING_CENSUS_SIZE):
            digits = tuple(rng.randrange(3) for _ in range(nslots))
            graph = EdgeBicoloredGraph.from_digits(args.vertices, digits)
            nu = find_ordering(graph)
            if (nu is not None) != structurally_eliminable(graph):
                raise AssertionError("eliminability routes disagree on a sample")
            eliminable += nu is not None
        return {
            "inputs": {"vertices": args.vertices, "include_swap": include_swap,
                       "oracle": False},
            "result": {
                "mode": "sampling",
                "samples": SAMPLING_CENSUS_SIZE,
                "eliminable": eliminable,
                "non_eliminable": SAMPLING_CENSUS_SIZE - eliminable,
            },
        }
    raise InputError(
        f"census is exhaustive up to 5 vertices and sampled at {SAMPLING_CENSUS_VERTICES}; "
        f"{args.vertices} vertices is out of range")


def cmd_oracle(args) -> dict:
    if (args.spec is None) == (args.arrangement is None):
        raise InputError("give exactly one of --spec or --arrangement")
    if args.spec is not None:
        spec = load_spec(args.spec)
        arrangement = to_arrangement(spec)
        inputs = {"spec": spec_to_obj(spec)}
    else:
        arrangement = load_arrangement(args.arrangement)
        inputs = {"arrangement": {
            "dim": arrangement.dim,
            "hyperplanes": [{"normal": list(nrm), "mult": m}
                            for nrm, m in arrangement.hyperplanes]}}
    cert = freeness_verdict(arrangement, budget=args.budget, seed=args.seed)
    return {"inputs": inputs, "result": _certificate_obj(cert)}


def cmd_deform(args) -> dict:
    digraph = load_digraph(args.digraph)
    verdict = deformation_verdict(DeformationSpec(digraph, args.k))
    z = verdict.ziegler
    return {
        "inputs": {"digraph": digraph_to_obj(digraph), "k": args.k},
        "result": {
            "status": verdict.status,
            "a1": verdict.a1,
            "a2": verdict.a2,
            "witness_triple": list(verdict.witness_triple) if verdict.witness_triple else None,
            "ziegler": _verdict_obj(z, verdict.ziegler_verdict),
            "ziegler_spec": spec_to_obj(z),
            "note": verdict.note,
        },
    }


def _render_table(report: dict, out) -> None:
    def emit(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                emit(f"{prefix}{k}.", value[k])
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, item in enumerate(value):
                emit(f"{prefix}{i}.", item)
        else:
            print(f"{prefix[:-1]:<42} {value}", file=out)

    print(f"command: {report['command']}   (braidfree {report['tool_version']})", file=out)
    emit("", report["result"])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidfree",
        description="bicolor-eliminability, multi-braid freeness, and the "
                    "derivation-module oracle")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the oracle's evaluation-point stream")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for census sweeps")
    parser.add_argument("--format", choices=("json", "table"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a multi-braid spec")
    p.add_argument("--graph", required=True, help="graph file (JSON)")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--n", default=None, help="comma-separated vertex shifts")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("census", help="classify all coloring classes on n vertices")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--no-swap", action="store_true",
                   help="count classes without the color swap")
    p.add_argument("--oracle", action="store_true",
                   help="verify each class with the derivation oracle at k=1, n=0")
    p.set_defaults(handler=cmd_census)

    p = sub.add_parser("oracle", help="freeness certificate for an arrangement")
    p.add_argument("--spec", default=None, help="multi-braid spec file (JSON)")
    p.add_argument("--arrangement", default=None, help="raw arrangement file (JSON)")
    p.add_argument("--budget", type=int, default=None, help="degree budget")
    p.set_defaults(handler=cmd_oracle)

    p = sub.add_parser("deform", help="analyze a braid-deformation digraph")
    p.add_argument("--digraph", required=True, help="digraph file (JSON)")
    p.add_argument("--k", type=int, default=0)
    p.set_defaults(handler=cmd_deform)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        body = args.handler(args)
    except (AssertionError, BrokenProcessPool) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (InputError, UnsupportedSizeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "command": args.command,
        "tool_version": __version__,
        "seed": args.seed,
        **body,
    }
    if args.format == "table":
        _render_table(report, sys.stdout)
    else:
        print(json.dumps(report, sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
