"""The four workloads: inputs made from the seed, the timed op, and the check.

A workload yields passes, each a list of ops; the runner times every op and
checks its output outside the timed region.  ``run`` returns the report (the
bytes a user would see), the units of work it completed, its seconds and
whatever the check needs besides the report.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import braidfree as bf
from braidfree import cli

import reference as ref

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
DATA = HERE / "data"
CHILD = HERE / "child.py"


def load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cli_call(argv, tracer=None, op_id=0):
    """Run one CLI command in this process: (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = tracer.root("cli.main", op_id, cli.main, argv) if tracer else cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        seconds = perf_counter() - t0
    return rc, out.getvalue(), seconds


class Census:
    """One exhaustive ``census --vertices 5``, then ``--seed s census
    --vertices 6`` commands (10 000 samples each) for seeds s drawn from a pool
    whose reports are stored."""

    name = "census"
    fresh_process = False
    work_unit = "colorings decided by both eliminability routes"
    POOL = range(1, 65)
    TRACE_SAMPLED = 4

    def __init__(self, seed: int):
        rng = random.Random(f"census:{seed}")
        self.seeds = rng.sample(list(self.POOL), len(self.POOL))

    def prepare(self, workdir: Path) -> None:
        self.golden5 = (GOLDEN / "census5.json").read_text(encoding="utf-8")
        self.golden6 = load_json(GOLDEN / "census6.json")
        self.eliminable5 = json.loads(self.golden5)["result"]["summary"]["eliminable"]

    def sizes(self) -> dict:
        return {"vertices": [5, 6], "exhaustive_classes_5": 406,
                "samples_per_6_vertex_command": cli.SAMPLING_CENSUS_SIZE,
                "sampling_seeds": self.seeds}

    def passes(self):
        yield [(5, 0)]
        for s in itertools.cycle(self.seeds):
            yield [(6, s)]

    def trace_ops(self):
        return [(5, 0)] + [(6, s) for s in self.seeds[:self.TRACE_SAMPLED]]

    def run(self, op, tracer=None, op_id=0):
        vertices, seed = op
        rc, report, seconds = cli_call(
            ["--seed", str(seed), "census", "--vertices", str(vertices)], tracer, op_id)
        units = 406 if vertices == 5 else cli.SAMPLING_CENSUS_SIZE
        return report, units, seconds, rc

    def check(self, op, report, rc):
        vertices, seed = op
        if rc != 0:
            return f"exit code {rc}"
        if vertices == 6:
            return None if report == self.golden6.get(str(seed)) else "report differs from golden"
        summary = json.loads(report)["result"]["summary"]
        if summary["labeled_total"] != 3 ** 10:
            return "labeled_total is not 3^C(5,2)"
        if (summary["classes"], summary["eliminable"]) != (406, self.eliminable5):
            return "class or eliminable count differs from the seed commit"
        return None if report == self.golden5 else "report differs from golden"


class Classify:
    """In-process ``classify`` and ``deform`` commands on 5-7 vertices, k in
    0..3.  Half of the classify graphs are eliminable by construction and half
    carry a planted obstruction; a quarter of the commands are ``deform``."""

    name = "classify"
    fresh_process = False
    work_unit = "commands"
    POOL = 4000
    TRACE_OPS = 2500

    def __init__(self, seed: int):
        rng = random.Random(f"classify:{seed}")
        self.inputs = [self._make(rng, i) for i in range(self.POOL)]

    @staticmethod
    def _make(rng, i):
        """Of every eight inputs, six are classify specs (every other graph
        eliminable) and two are deform digraphs: one whose arcs satisfy
        (A1)/(A2) or realize an eliminable graph, in turn, and one realizing
        a non-eliminable graph."""
        n = rng.choice((5, 6, 7))
        k = rng.randrange(4)
        slot = i % 8
        if slot == 6 and i // 8 % 2 == 0:
            return {"kind": "deform", "n": n, "k": k, "arcs": ref.threshold_digraph(rng, n),
                    "eliminable": True}
        eliminable = slot % 2 == 0
        g = ref.random_eliminable(rng, n) if eliminable else ref.random_non_eliminable(rng, n)
        if slot >= 6:
            return {"kind": "deform", "n": n, "k": k, "arcs": ref.realize_digraph(rng, g),
                    "eliminable": eliminable}
        shifts = [rng.choice((0, 0, 0, 1)) for _ in range(n)]
        return {"kind": "classify", "n": n, "k": k, "shifts": shifts, "graph": g,
                "eliminable": eliminable}

    def prepare(self, workdir: Path) -> None:
        self.argv = []
        for i, item in enumerate(self.inputs):
            path = workdir / f"input-{i}.json"
            if item["kind"] == "classify":
                path.write_text(json.dumps(ref.graph_obj(item["graph"])), encoding="utf-8")
                self.argv.append(["classify", "--graph", str(path), "--k", str(item["k"]),
                                  "--n", ",".join(map(str, item["shifts"]))])
            else:
                path.write_text(json.dumps({"vertices": item["n"], "arcs": item["arcs"]}),
                                encoding="utf-8")
                self.argv.append(["deform", "--digraph", str(path), "--k", str(item["k"])])

    def expected(self, item) -> str:
        if item["kind"] == "deform":
            a1, a2 = ref.arc_conditions(item["n"], item["arcs"])
            if a1 and a2:
                return "Free"
            return "Undetermined" if item["eliminable"] else "NonFree"
        if not ref.theorem_scope(item["k"], item["shifts"], item["graph"]):
            return "OutOfTheoremScope"
        return "Free" if item["eliminable"] else "NonFree"

    def sizes(self) -> dict:
        kinds = [item["kind"] for item in self.inputs]
        classify = [item for item in self.inputs if item["kind"] == "classify"]
        deform = [item for item in self.inputs if item["kind"] == "deform"]

        def shares(items):
            out: dict = {}
            for item in items:
                status = self.expected(item)
                out[status] = out.get(status, 0) + 1
            return {s: round(c / len(items), 4) for s, c in sorted(out.items())}

        return {"distinct_inputs": len(self.inputs), "vertices": [5, 6, 7], "k": [0, 1, 2, 3],
                "classify_commands_share": kinds.count("classify") / len(kinds),
                "eliminable_share": sum(i["eliminable"] for i in self.inputs) / len(self.inputs),
                "classify_expected_status_share": shares(classify),
                "deform_expected_status_share": shares(deform)}

    def passes(self):
        for i in itertools.cycle(range(self.POOL)):
            yield [i]

    def trace_ops(self):
        return list(range(self.TRACE_OPS))

    def run(self, i, tracer=None, op_id=0):
        rc, report, seconds = cli_call(self.argv[i], tracer, op_id)
        return report, 1, seconds, rc

    def check(self, i, report, rc):
        if rc != 0:
            return f"exit code {rc}"
        item = self.inputs[i]
        res = json.loads(report)["result"]
        want = self.expected(item)
        if res["status"] != want:
            return f"status {res['status']}, expected {want}"
        if item["kind"] == "deform":
            n, k = item["n"], item["k"]
            a1, a2 = ref.arc_conditions(n, item["arcs"])
            z = ref.restriction_graph(n, item["arcs"])
            if (res["a1"], res["a2"]) != (a1, a2):
                return "arc conditions differ"
            if res["ziegler_spec"] != {"k": k + 1, "n": [0] * n, "graph": ref.graph_obj(z)}:
                return "restriction to infinity differs"
            if (ref.elimination_ordering(z) is not None) != item["eliminable"]:
                return "generated restriction has the wrong eliminability"
            return None
        g, k, shifts = item["graph"], item["k"], item["shifts"]
        if (ref.elimination_ordering(g) is not None) != item["eliminable"]:
            return "generated graph has the wrong eliminability"
        if want == "Free":
            ranks = res["ordering"]
            by_rank = sorted(range(1, len(ranks) + 1), key=lambda v: ranks[v - 1])
            exps = res["exponents"]
            if not ref.valid_ordering(g, by_rank):
                return "reported ordering is not an elimination ordering"
            if sum(exps) != ref.multiplicity_sum(k, shifts, g):
                return "exponents do not sum to the multiplicity sum"
            if ref.e2(exps) != res["lmp2"]:
                return "e2(exponents) differs from the second local mixed product"
            if res["char_poly_roots"] != sorted([0] + exps):
                return "characteristic polynomial roots differ from the exponents"
        elif want == "NonFree":
            s = res["structural"]
            if res["eliminable"] or (s["chordal_plus"] and s["chordal_minus"] and not any(
                    (s["bad_quadruple"], s["mountain"], s["hill"]))):
                return "NonFree verdict without a structural obstruction"
        return None


class OracleSweep:
    """The per-class work of ``census --vertices 5 --oracle`` on a seeded
    sample of the 406 classes: both eliminability routes, the oracle at k=1,
    n=0, and the classifier cross-check, in one process.

    ``data/classes5.json`` lists the classes from the most to the least
    elimination work measured at the seed commit.  A pass always takes the
    first class, whose work is twice any other's, so every run holds the same
    largest matrices; it takes one class at random from each following run of
    GROUP classes, so every sample covers the heavy tail alike."""

    name = "oracle-sweep"
    fresh_process = False
    work_unit = "certificates"
    GROUP = 9

    def __init__(self, seed: int):
        self.classes = load_json(DATA / "classes5.json")
        self.rng = random.Random(f"oracle-sweep:{seed}")
        self.first = self._pass()

    def _pass(self):
        n = len(self.classes)
        picks = [0] + [self.rng.randrange(start, min(start + self.GROUP, n))
                       for start in range(1, n, self.GROUP)]
        return [(idx, self.rng.randrange(1 << 16)) for idx in picks]

    def prepare(self, workdir: Path) -> None:
        pass

    def sizes(self) -> dict:
        return {"vertices": 5, "k": 1, "classes": len(self.classes),
                "classes_per_pass": len(self.first),
                "strata": f"the heaviest class, then one of each {self.GROUP}"}

    def passes(self):
        ops = self.first
        while True:
            shuffled = list(ops)
            self.rng.shuffle(shuffled)
            yield shuffled
            ops = self._pass()

    def trace_ops(self):
        return self.first[1::2]

    def run(self, op, tracer=None, op_id=0):
        idx, seed = op
        digits = tuple(int(c) for c in self.classes[idx]["digits"])

        def work():
            g = bf.EdgeBicoloredGraph.from_digits(5, digits)
            by_ordering = bf.find_ordering(g) is not None
            by_structure = bf.structurally_eliminable(g)
            spec = bf.MultiBraidSpec(1, (0,) * 5, g)
            arrangement = bf.to_arrangement(spec)
            cert = bf.freeness_verdict(arrangement, seed=seed)
            return by_ordering, by_structure, arrangement, cert, bf.classify(spec)

        t0 = perf_counter()
        out = tracer.root("bench.sweep", op_id, work) if tracer else work()
        seconds = perf_counter() - t0
        by_ordering, by_structure, _, cert, verdict = out
        row = {"routes": [by_ordering, by_structure], "status": cert.status,
               "generator_degrees": list(cert.generator_degrees),
               "dimension_table": cert.dimension_table,
               "new_generator_table": cert.new_generator_table,
               "saito_point": [str(x) for x in cert.saito_point] if cert.saito_point else None,
               "note": cert.note, "classifier": [verdict.status, verdict.exponents]}
        return json.dumps(row, sort_keys=True), 1, seconds, out

    def check(self, op, report, out):
        idx, seed = op
        by_ordering, by_structure, arrangement, cert, verdict = out
        want = self.classes[idx]
        if not by_ordering == by_structure == want["eliminable"]:
            return "eliminability routes disagree or differ from the census"
        if cert.status != want["status"] or list(cert.generator_degrees) != want["generator_degrees"]:
            return f"certificate {cert.status} {cert.generator_degrees} differs from the seed commit"
        if verdict.status != cert.status:
            return "oracle disagrees with the classifier"
        if cert.status == "Free":
            if tuple(cert.generator_degrees) != verdict.exponents:
                return "oracle exponents differ from the classifier's"
            if not bf.saito_check(arrangement, cert.generators, seed=seed):
                return "Free certificate fails saito_check"
        return None


class OracleDeep:
    """Large certificates, each in a fresh process as ``braidfree oracle``
    runs them: the first eleven degrees (``--budget 10``) of the 5-vertex k=2
    spec Plus 12, 13; Minus 34, then four 4-vertex deformation cones at k=1
    drawn from ``data/cones.json``, relabelled at random."""

    name = "oracle-deep"
    fresh_process = True
    work_unit = "certificates"
    SPEC = {"k": 2, "n": [0, 0, 0, 0, 0],
            "graph": {"vertices": 5, "plus": [[1, 2], [1, 3]], "minus": [[3, 4]]}}
    SPEC_BUDGET = 10
    CONES_PER_PASS = 4
    TIMEOUT_S = 120

    def __init__(self, seed: int):
        self.pool = load_json(DATA / "cones.json")
        self.rng = random.Random(f"oracle-deep:{seed}")
        self.first = self._pass()

    def _pass(self):
        ops = [("spec", self.SPEC, 0)]
        for cone in self.rng.sample(self.pool, self.CONES_PER_PASS):
            perm = [0] + self.rng.sample(range(1, 5), 4)
            arcs = sorted([perm[i], perm[j]] for i, j in cone["arcs"])
            ops.append(("cone", {"arcs": arcs, "status": cone["status"]}, self.rng.randrange(1 << 16)))
        return ops

    def prepare(self, workdir: Path) -> None:
        self.workdir = workdir
        self.golden_spec = (GOLDEN / "spec_k2_budget10.json").read_text(encoding="utf-8")
        self.golden_cones = load_json(GOLDEN / "cones.json")

    def sizes(self) -> dict:
        return {"spec": {"vertices": 5, "k": 2, "budget": self.SPEC_BUDGET},
                "cones": {"vertices": 4, "k": 1, "per_pass": self.CONES_PER_PASS,
                          "pool": len(self.pool)},
                "first_pass_cones": [op[1]["arcs"] for op in self.first[1:]]}

    def passes(self):
        ops = self.first
        while True:
            yield ops
            ops = self._pass()

    def trace_ops(self):
        return self.first[:2]

    @staticmethod
    def cone_key(arcs, seed) -> str:
        return json.dumps([arcs, seed])

    def run(self, op, tracer=None, op_id=0):
        kind, item, seed = op
        tag = f"{op_id}-{'t' if tracer else 'u'}"
        infile = self.workdir / f"{kind}-{tag}.json"
        outfile = self.workdir / f"out-{tag}.json"
        if kind == "spec":
            infile.write_text(json.dumps(item), encoding="utf-8")
            argv = ["--seed", str(seed), "oracle", "--spec", str(infile),
                    "--budget", str(self.SPEC_BUDGET)]
        else:
            infile.write_text(json.dumps(ref.cone_obj(4, item["arcs"], 1)), encoding="utf-8")
            argv = ["--seed", str(seed), "oracle", "--arrangement", str(infile)]
        cmd = [sys.executable, str(CHILD), "--out", str(outfile)]
        if tracer:
            cmd.append("--trace")
        t0 = perf_counter()
        try:
            proc = subprocess.run(cmd + ["--"] + argv, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=self.TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            return "", 1, perf_counter() - t0, {"error": "timed out"}
        if proc.returncode != 0 or not outfile.exists():
            return "", 1, perf_counter() - t0, {
                "error": f"child exit {proc.returncode}: {proc.stderr.decode()[-300:]}"}
        res = load_json(outfile)
        outfile.unlink()
        if tracer and res.get("trace"):
            tracer.merge(res["trace"], op_id)
        return res["report"], 1, res["seconds"], res

    def check(self, op, report, res):
        kind, item, seed = op
        if "error" in res:
            return res["error"]
        if res["rc"] != 0:
            return f"exit code {res['rc']}"
        if kind == "spec":
            return None if report == self.golden_spec else "report differs from golden"
        golden = self.golden_cones.get(self.cone_key(item["arcs"], seed))
        if golden is not None and report != golden:
            return "report differs from golden"
        cert = json.loads(report)["result"]
        if cert["status"] != item["status"]:
            return f"cone status {cert['status']}, expected {item['status']}"
        spec = bf.DeformationSpec(bf.DirectedGraph.from_arcs(4, [tuple(a) for a in item["arcs"]]), 1)
        verdict = bf.deformation_verdict(spec)
        if verdict.status in ("Free", "NonFree") and verdict.status != cert["status"]:
            return "cone status differs from deformation_verdict"
        if cert["status"] == "Free":
            exps = list(cert["generator_degrees"])
            if 1 not in exps:
                return "free cone without the exponent 1"
            exps.remove(1)
            if verdict.ziegler_verdict.status != "Free" or tuple(exps) != verdict.ziegler_verdict.exponents:
                return "free cone exponents minus one 1 differ from the Ziegler restriction's"
            if res["saito"] is not True:
                return "Free certificate fails saito_check"
        return None


WORKLOADS = {w.name: w for w in (Census, Classify, OracleSweep, OracleDeep)}
