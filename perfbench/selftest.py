"""Tests of the benchmark itself (not of braidfree), from the checkout's root:

    python3 perfbench/selftest.py

Takes about a minute: the last test recomputes the full 5-vertex k=2
certificate, which is too slow for a benchmark run, against its golden report.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import braidfree as bf  # noqa: E402

import reference as ref  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import GOLDEN, WORKLOADS, Census, Classify, OracleDeep, OracleSweep, cli_call  # noqa: E402


def inputs_of(w):
    if isinstance(w, Census):
        return w.seeds
    if isinstance(w, Classify):
        return w.inputs
    return w.first


class Inputs(unittest.TestCase):
    def test_seed_determines_inputs(self):
        for cls in WORKLOADS.values():
            with self.subTest(workload=cls.name):
                self.assertEqual(inputs_of(cls(1)), inputs_of(cls(1)))
                self.assertNotEqual(inputs_of(cls(1)), inputs_of(cls(2)))

    def test_generated_graphs_have_the_intended_eliminability(self):
        rng = random.Random(0)
        for n in (5, 6, 7):
            for _ in range(50):
                g = ref.random_eliminable(rng, n)
                self.assertIsNotNone(bf.find_ordering(bf.fileio.load_graph(ref.graph_obj(g))))
                h = ref.random_non_eliminable(rng, n)
                self.assertIsNone(bf.find_ordering(bf.fileio.load_graph(ref.graph_obj(h))))

    def test_reference_eliminability_matches_the_census(self):
        for c in bf.enumerate_classes(4):
            g = ref.empty_graph(4)
            for i in range(1, 5):
                for j in range(i + 1, 5):
                    ref.set_color(g, i, j, c.representative.mat[i][j])
            self.assertEqual(ref.elimination_ordering(g) is not None,
                             bf.find_ordering(c.representative) is not None)


class Tracing(unittest.TestCase):
    def test_wrappers_are_restored_and_reports_unchanged(self):
        w = Classify(3)
        w.TRACE_OPS = 200
        before = run.bindings()
        with tempfile.TemporaryDirectory() as tmp:
            w.prepare(Path(tmp))
            res = run.measure_traced(w, Path(tmp) / "spans.json")
            spans = json.loads((Path(tmp) / "spans.json").read_text())
        self.assertEqual(run.bindings(), before)
        self.assertEqual(res["failures"], [])
        self.assertGreater(len(spans["spans"]), 0)
        self.assertGreater(res["metrics"]["multibraid.classify.calls_per_op"]["value"], 0)

    def test_install_restore_round_trip(self):
        before = run.bindings()
        tracer = Tracer()
        tracer.install()
        self.assertNotEqual(run.bindings(), before)
        tracer.restore()
        self.assertEqual(run.bindings(), before)


class Checks(unittest.TestCase):
    def test_planted_wrong_census_answer_counts_as_failed(self):
        w = Census(0)
        with tempfile.TemporaryDirectory() as tmp:
            w.prepare(Path(tmp))
            self.assertEqual(run.measure(w, 0.0, float)["failures"], [])
            w.eliminable5 += 1
            self.assertEqual(len(run.measure(w, 0.0, float)["failures"]), 1)

    def test_planted_wrong_oracle_answer_counts_as_failed(self):
        w = OracleSweep(0)
        w.first = w.first[-2:]
        idx = w.first[0][0]
        w.classes = [dict(c) for c in w.classes]
        w.classes[idx]["status"] = "NonFree" if w.classes[idx]["status"] == "Free" else "Free"
        res = run.measure(w, 0.0, float)
        self.assertEqual((res["attempted"], len(res["failures"])), (2, 1))

    def test_metrics_match_benchmark_json(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(run.main(["--workload", "census", "--seed", "1", "--seconds", "0"]), 0)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        for section, metrics in (("end_to_end", result["metrics"]),
                                 ("per_layer", layer_metrics(Tracer(), 1))):
            want = {m["name"]: m["unit"] for m in bench[section]}
            want.pop("trace.overhead_ratio", None)
            self.assertEqual({k: v["unit"] for k, v in metrics.items()}, want)

    def test_tail_percentile(self):
        self.assertIsNone(run.tail([1.0] * 10))
        t = run.tail([float(i) for i in range(1, 101)])
        self.assertEqual((t["percentile"], t["value"], t["samples_beyond"]), (90, 90.0, 10))

    def test_full_k2_spec_matches_golden(self):
        with tempfile.TemporaryDirectory() as tmp:
            spec = Path(tmp) / "spec.json"
            spec.write_text(json.dumps(OracleDeep.SPEC))
            rc, report, _ = cli_call(["oracle", "--spec", str(spec)])
        self.assertEqual(rc, 0)
        self.assertEqual(report, (GOLDEN / "spec_k2.json").read_text())


if __name__ == "__main__":
    unittest.main()
