"""Regenerate the benchmark's stored answers from the current sources.

    python3 perfbench/make_golden.py [census] [classes] [cones] [deep]

census:  golden/census5.json and golden/census6.json (the sampling pool);
classes: data/classes5.json, the 406 five-vertex classes with their census
         and oracle answers, ordered by the matrix cells rank_of eliminated;
cones:   data/cones.json, the oracle status of each cone in the pool;
deep:    golden/spec_k2.json, golden/spec_k2_budget10.json and golden/cones.json
         (the cones the default seed runs).
Run it only on a commit whose answers are trusted; the benchmark compares
every later commit against these files.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import braidfree as bf  # noqa: E402
from braidfree.fileio import load_arrangement  # noqa: E402

import reference as ref  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DATA, GOLDEN, Census, OracleDeep, cli_call  # noqa: E402

CONE_POOL = [[], [[4, 1]], [[1, 3], [4, 2], [4, 3]], [[4, 2], [4, 3]], [[3, 2], [4, 1]],
             [[2, 1], [4, 2]], [[1, 2], [2, 4]], [[2, 1], [3, 1], [3, 2]],
             [[1, 4], [3, 4], [4, 1]], [[1, 2]], [[1, 2], [2, 1]], [[2, 1], [3, 1]],
             [[1, 2], [1, 4]]]


def succeeded(rc: int) -> None:
    if rc != 0:
        raise SystemExit(f"a command exited with {rc}; no answers were stored")


def dump(path: Path, obj) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def census() -> None:
    w = Census(0)
    report, _, _, rc = w.run((5, 0))
    succeeded(rc)
    (GOLDEN / "census5.json").write_text(report, encoding="utf-8")
    pool = {}
    for s in w.POOL:
        report, _, _, rc = w.run((6, s))
        succeeded(rc)
        pool[str(s)] = report
    dump(GOLDEN / "census6.json", pool)


def classes() -> None:
    rows = []
    for order, c in enumerate(bf.enumerate_classes(5)):
        g = c.representative
        tracer = Tracer()
        tracer.install()
        try:
            cert = tracer.root("make", 0, bf.freeness_verdict,
                               bf.to_arrangement(bf.MultiBraidSpec(1, (0,) * 5, g)))
        finally:
            tracer.restore()
        rows.append({"digits": "".join(map(str, g.digits())),
                     "eliminable": bf.find_ordering(g) is not None,
                     "status": cert.status, "generator_degrees": list(cert.generator_degrees),
                     "cells": tracer.count["linalg.rank_of.cells"], "census_order": order})
        print(order, rows[-1]["cells"], flush=True)
    rows.sort(key=lambda r: (-r["cells"], r["census_order"]))
    dump(DATA / "classes5.json", rows)


def cones() -> None:
    pool = []
    for arcs in CONE_POOL:
        arrangement = load_arrangement(ref.cone_obj(4, arcs, 1))
        pool.append({"arcs": arcs, "status": bf.freeness_verdict(arrangement).status})
        print(pool[-1], flush=True)
    dump(DATA / "cones.json", pool)


def deep() -> None:
    w = OracleDeep(0)
    with tempfile.TemporaryDirectory() as tmp:
        w.workdir = Path(tmp)
        report, _, _, res = w.run(w.first[0])
        succeeded(res["rc"])
        (GOLDEN / "spec_k2_budget10.json").write_text(report, encoding="utf-8")
        reports = {}
        for op in w.first[1:]:
            report, _, _, res = w.run(op)
            succeeded(res["rc"])
            reports[w.cone_key(op[1]["arcs"], op[2])] = report
        dump(GOLDEN / "cones.json", reports)
        spec = Path(tmp) / "spec.json"
        spec.write_text(json.dumps(w.SPEC), encoding="utf-8")
        rc, report, _ = cli_call(["oracle", "--spec", str(spec)])
        succeeded(rc)
        (GOLDEN / "spec_k2.json").write_text(report, encoding="utf-8")


if __name__ == "__main__":
    for part in sys.argv[1:] or ["census", "classes", "cones", "deep"]:
        globals()[part]()
