"""Command-line surface: classify, census, oracle, deform.

Reports are JSON objects with a stable schema (command, inputs, result,
tool_version, seed) and are byte-identical across runs with the same inputs
and seed; ``--format table`` renders a human-readable view instead.

Exit codes: 0 for any mathematical verdict, 2 for input errors and for a
report that cannot be written (a closed pipe, a full device), 3 for an
internal failure (a bug, e.g. the two eliminability routes disagreeing, a
Free verdict whose exponents break e2(exponents) = LMP2, or a ``--jobs``
worker process dying).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import random
import sys

from . import __version__
from .deform import DeformationSpec, deformation_verdict
from .eliminate import complete_filtration, is_eliminable
from .fileio import (InputError, digraph_to_obj, graph_to_obj, load_arrangement,
                     load_digraph, load_graph, load_spec, spec_to_obj)
from .graphs import (MAX_CENSUS_VERTICES, PLUS, EdgeBicoloredGraph, UnsupportedSizeError,
                     enumerate_classes)
from .multibraid import FREE, CharPoly, MultiBraidSpec, classify, lmp2, to_arrangement
from .oracle import freeness_verdict

SAMPLING_CENSUS_VERTICES = 6
SAMPLING_CENSUS_SIZE = 10_000
_DRAWS_PER_REFILL = 4096


def _structural_obj(report) -> dict:
    def witness(w):
        if w is None:
            return None
        obj = {"sigma": "plus" if w.sigma == PLUS else "minus", "path": list(w.path)}
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
    return {
        "status": verdict.status,
        "condition": verdict.condition,
        "eliminable": verdict.structural.passes,
        "ordering": list(verdict.ordering.ranks) if verdict.ordering else None,
        "tilde_degrees": list(verdict.tilde) if verdict.tilde else None,
        "exponents": list(verdict.exponents) if verdict.exponents else None,
        "structural": _structural_obj(verdict.structural),
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
    spec = MultiBraidSpec(args.k, tuple(n), graph)
    verdict = classify(spec)
    result = _verdict_obj(spec, verdict)
    result["lmp2"] = lmp2(spec)
    if verdict.status == FREE:
        # a free multiarrangement has e2(exponents) = LMP2 (Abe-Terao-Wakefield 2007)
        e2 = sum(a * b for a, b in itertools.combinations(verdict.exponents, 2))
        if e2 != result["lmp2"]:
            raise AssertionError("Free exponents break e2(exponents) = LMP2")
        result["char_poly_roots"] = list(CharPoly.of(verdict).roots)
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
    key, graph, labeled, with_oracle, seed = payload
    spec = MultiBraidSpec(1, (0,) * graph.n, graph)
    verdict = classify(spec)       # k = 1 is in scope: Free iff eliminable
    eliminable = verdict.status == FREE
    row = {
        "key": key,
        "graph": graph_to_obj(graph),
        "labeled_count": labeled,
        "eliminable": eliminable,
        "tilde_degree_multiset": sorted(verdict.tilde) if eliminable else None,
    }
    if with_oracle:
        cert = freeness_verdict(to_arrangement(spec), seed=seed)
        row["oracle"] = {
            "status": cert.status,
            "generator_degrees": list(cert.generator_degrees),
        }
        row["classifier_status"] = verdict.status
        if verdict.status != cert.status:
            raise AssertionError("oracle disagrees with the classifier on a census class")
    return row


def _digit_slices(rng: random.Random, size: int):
    """Successive ``size``-long byte strings of color codes 0..2: the values
    ``rng.randrange(3)`` returns, in the same order.

    ``randrange(3)`` draws ``getrandbits(2)`` and draws again while it reads
    3 (``Random._randbelow_with_getrandbits``), so mapping ``getrandbits``
    over a run of 2s and deleting the 3s gives the same stream, with no
    Python-level call per code.  The buffer is refilled a fixed number of
    draws at a time, so it stays small however many slices are taken.
    """
    buf, pos = b"", 0
    while True:
        while len(buf) - pos < size:
            draws = bytes(map(rng.getrandbits, itertools.repeat(2, _DRAWS_PER_REFILL)))
            buf, pos = buf[pos:] + draws.translate(None, b"\x03"), 0
        yield buf[pos:pos + size]
        pos += size


def cmd_census(args) -> dict:
    if args.jobs < 1:
        raise InputError("--jobs must be at least 1")
    include_swap = not args.no_swap
    if args.vertices <= MAX_CENSUS_VERTICES:
        classes = enumerate_classes(args.vertices, include_swap=include_swap)
        payloads = [(c.canonical_key.hex(), c.representative, c.labeled_count,
                     args.oracle, args.seed) for c in classes]
        if args.jobs > 1:
            # imported here: the pool pulls in multiprocessing, which every
            # other command would pay for at start-up
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool
            workers = min(args.jobs, os.cpu_count() or 1, len(payloads))
            try:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    rows = list(pool.map(_census_row, payloads, chunksize=4))
            except BrokenProcessPool as exc:
                raise AssertionError(str(exc)) from exc
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
        if args.oracle:
            raise InputError("the 6-vertex census samples; it runs no oracle")
        if args.no_swap:
            raise InputError("the 6-vertex census samples labeled colorings; it has no --no-swap")
        # each sample is C(6,2) codes of random.Random(seed).randrange(3),
        # drawn in bulk by _digit_slices
        nslots = args.vertices * (args.vertices - 1) // 2
        samples = _digit_slices(random.Random(args.seed), nslots)
        eliminable = 0
        for digits in itertools.islice(samples, SAMPLING_CENSUS_SIZE):
            graph = EdgeBicoloredGraph.from_digits(args.vertices, digits)
            eliminable += is_eliminable(graph).eliminable
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
        f"census is exhaustive up to {MAX_CENSUS_VERTICES} vertices and sampled at "
        f"{SAMPLING_CENSUS_VERTICES}; {args.vertices} vertices is out of range")


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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidfree",
        description="bicolor-eliminability, multi-braid freeness, and the "
                    "derivation-module oracle")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the oracle's evaluation-point stream")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for census sweeps (at most one per CPU)")
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


def _error(line: str) -> None:
    """One line to stderr; if stderr is unwritable, the exit code still holds."""
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        pass


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        body = args.handler(args)
    except AssertionError as exc:
        _error(f"internal error: {exc}")
        return 3
    except (InputError, UnsupportedSizeError, ValueError, OSError) as exc:
        _error(f"error: {exc}")
        return 2
    report = {
        "command": args.command,
        "tool_version": __version__,
        "seed": args.seed,
        **body,
    }
    try:
        if args.format == "table":
            _render_table(report, sys.stdout)
        else:
            print(json.dumps(report, sort_keys=True, indent=2))
        sys.stdout.flush()
    except OSError as exc:
        # a closed pipe or a full device: point stdout at the null device so
        # the flush at interpreter exit has nothing left to fail on
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        _error(f"error: {exc}")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
