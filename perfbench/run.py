"""braidfree benchmark: one command per workload, run from a checkout's root.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Workloads: census, classify, oracle-sweep, oracle-deep (see NOTES.md).  The
inputs come from --seed.  With --trace 0 the ops are timed untraced and the
end-to-end metrics are printed; with --trace 1 a fixed list of ops is run
untraced and traced in alternation and the per-layer metrics are printed.
Every output is checked outside the timed region.  The last line of stdout
is the result: {"correct", "attempted", "failed", "metrics"}; the line
before it records the environment, the input sizes and the details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from tracer import MODULES, Tracer, layer_metrics, metric

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("census", "classify", "oracle-sweep", "oracle-deep")
SETUP_REPEATS = 7
MAX_FAILURE_NOTES = 5
WALL_LIMIT_S = 140  # stop starting ops here, so a run ends well within 180 s


def setup_probe(workload: str, seed: int) -> float:
    """Seconds to import braidfree and make the workload's inputs, in this
    (fresh) process."""
    t0 = perf_counter()
    from workloads import WORKLOADS
    WORKLOADS[workload](seed)
    return perf_counter() - t0


def setup_seconds(workload: str, seed: int) -> float:
    """One setup probe in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "braidfree").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "loadavg_at_start": list(os.getloadavg()), "seed": seed}


def tail(times: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it (nearest rank)."""
    n = len(times)
    if n < 11:
        return None
    pct = 100 * (n - 10) // n
    rank = -(-pct * n // 100)
    return {"value": sorted(times)[rank - 1], "unit": "s", "percentile": pct,
            "samples_beyond": n - rank, "samples": n}


def run_op(w, op, tracer=None, op_id=0):
    """(report, units, seconds, failure reason or None) for one op.  An op
    that raises is charged the time it ran."""
    t0 = perf_counter()
    try:
        report, units, seconds, extra = w.run(op, tracer, op_id)
    except Exception as exc:  # a failing op is counted, not fatal
        return "", 0, perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    try:
        reason = w.check(op, report, extra)
    except Exception as exc:
        reason = f"check raised {type(exc).__name__}: {exc}"
    return report, units, seconds, reason


def measure(w, seconds: float, probe) -> dict:
    """Run whole passes until the measured time is within half a pass of
    ``seconds``.  ``probe()`` times one set-up; it runs SETUP_REPEATS times,
    spread evenly over the run, because the machine's speed drifts over
    minutes and a burst of probes would sample a single moment of it."""
    times, done, failures, setups = [], 0, [], [probe()]
    measured = 0.0
    start = perf_counter()
    for passes, batch in enumerate(w.passes(), start=1):
        for op in batch:
            _, units, secs, reason = run_op(w, op)
            times.append(secs)
            measured += secs
            if reason is None:
                done += units
            else:
                failures.append(reason)
            due = seconds * len(setups) / (SETUP_REPEATS - 1)
            if len(setups) < SETUP_REPEATS - 1 and measured >= due:
                setups.append(probe())
            if perf_counter() - start > WALL_LIMIT_S:
                break
        if measured + measured / passes / 2 >= seconds or perf_counter() - start > WALL_LIMIT_S:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(probe())
    rss_kind = resource.RUSAGE_CHILDREN if w.fresh_process else resource.RUSAGE_SELF
    return {"attempted": len(times), "failures": failures, "times": times, "setups": setups,
            "work_per_s": done / measured if measured else 0.0,
            "peak_rss_mb": resource.getrusage(rss_kind).ru_maxrss / 1024}


def bindings() -> dict:
    """Every name bound in braidfree's modules and their classes, by identity."""
    out = {}
    for name in MODULES:
        mod = sys.modules.get(name)
        for key, value in vars(mod).items() if mod else ():
            out[(name, key)] = id(value)
            if isinstance(value, type) and value.__module__.startswith("braidfree"):
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = id(member)
    return out


def measure_traced(w, spans_path: Path) -> dict:
    """Each op of the fixed trace list runs untraced and traced, in
    alternating order; the two reports must be identical.  In-process
    workloads first run the first op once, uncounted, so that neither side
    pays for filling the package's caches."""
    tracer = Tracer()
    seconds = {False: 0.0, True: 0.0}
    failures = []
    ops = w.trace_ops()
    if not w.fresh_process:
        run_op(w, ops[0])
    before = bindings()
    for i, op in enumerate(ops):
        reports, reasons = {}, {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced and not w.fresh_process:
                tracer.install()
            try:
                reports[traced], _, secs, reasons[traced] = run_op(w, op, tracer if traced else None, i)
            finally:
                tracer.restore()
            seconds[traced] += secs
        if reasons[True] is None and reports[True] != reports[False]:
            reasons[True] = f"op {i}: traced report differs from the untraced one"
        failures += [r for r in reasons.values() if r is not None]
    if bindings() != before:
        failures.append("tracing left a function replaced")
    tracer.write(spans_path)
    metrics = layer_metrics(tracer, len(ops))
    metrics["trace.overhead_ratio"] = metric(
        seconds[False] / seconds[True] if seconds[True] else 0.0, "ratio")
    return {"attempted": 2 * len(ops), "failures": failures, "metrics": metrics,
            "untraced_s": seconds[False], "traced_s": seconds[True]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "braidfree" / "__init__.py").is_file():
        print(f"error: no braidfree sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0

    env = environment(args.seed)
    from workloads import WORKLOADS
    w = WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        w.prepare(workdir)
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            res = measure_traced(w, spans)
            metrics = res["metrics"]
            details = {"untraced_s": res["untraced_s"], "traced_s": res["traced_s"],
                       "spans_file": str(spans.relative_to(ROOT))}
        else:
            res = measure(w, args.seconds, lambda: setup_seconds(args.workload, args.seed))
            times, setups = res["times"], res["setups"]
            metrics = {
                "setup_s": metric(statistics.median(setups), "s"),
                "work_per_s": metric(res["work_per_s"], "1/s"),
                "op_s.p50": metric(statistics.median(times), "s"),
                "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
            }
            details = {"work_unit": w.work_unit, "op_s.tail": tail(times), "op_samples": len(times),
                       "measured_s": sum(times), "setup_s_samples": setups}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(res["failures"])
    attempted = res["attempted"]
    details.update({
        "workload": args.workload, "environment": env, "inputs": w.sizes(),
        "failed_ratio": metric(failed / attempted, "ratio"),
        "failures": res["failures"][:MAX_FAILURE_NOTES],
    })
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
