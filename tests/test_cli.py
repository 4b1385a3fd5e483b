"""CLI surface: schemas, determinism, exit codes."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import braidfree
import braidfree.cli as cli
from braidfree.cli import _DRAWS_PER_REFILL, _digit_slices, main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


K4 = {"vertices": 4,
      "plus": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]], "minus": []}
CYCLE = {"vertices": 4, "plus": [[1, 2], [2, 3], [3, 4], [1, 4]], "minus": []}
EDGELESS3 = {"vertices": 3, "plus": [], "minus": []}


def test_classify_k4(tmp_path, capsys):
    rc, out = run(capsys, "classify", "--graph", write(tmp_path, "g.json", K4))
    assert rc == 0
    report = json.loads(out)
    assert report["command"] == "classify"
    result = report["result"]
    assert result["status"] == "Free"
    assert result["exponents"] == [0, 1, 2, 3]
    assert result["condition"] == "b"
    assert result["char_poly_roots"] == [0, 0, 1, 2, 3]
    assert result["lmp2"] == 11
    assert len(result["filtration"]) == 6


def test_classify_nonfree_cycle(tmp_path, capsys):
    rc, out = run(capsys, "classify", "--graph", write(tmp_path, "g.json", CYCLE),
                  "--k", "1")
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["status"] == "NonFree"
    assert result["structural"]["chordal_plus"] is False
    assert result["exponents"] is None and result["filtration"] is None


def test_classify_edgeless_k1(tmp_path, capsys):
    rc, out = run(capsys, "classify", "--graph", write(tmp_path, "g.json", EDGELESS3),
                  "--k", "1")
    assert rc == 0
    assert json.loads(out)["result"]["exponents"] == [0, 3, 3]


def test_out_of_scope_is_exit_zero(tmp_path, capsys):
    g = {"vertices": 3, "plus": [], "minus": [[1, 2]]}
    rc, out = run(capsys, "classify", "--graph", write(tmp_path, "g.json", g))
    assert rc == 0
    assert json.loads(out)["result"]["status"] == "OutOfTheoremScope"


def test_out_of_scope_reports_graph_eliminability(tmp_path, capsys):
    # no scope condition holds at k = 0 with both colors present, but the
    # path 1-2-3 is eliminable and the report says so
    g = {"vertices": 3, "plus": [[1, 2]], "minus": [[2, 3]]}
    rc, out = run(capsys, "classify", "--graph", write(tmp_path, "g.json", g), "--k", "0")
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["status"] == "OutOfTheoremScope"
    assert result["eliminable"] is True
    assert result["structural"]["chordal_plus"] and result["structural"]["chordal_minus"]
    assert result["ordering"] is None and result["tilde_degrees"] is None
    assert result["exponents"] is None


def test_census_four(capsys):
    rc, out = run(capsys, "census", "--vertices", "4")
    assert rc == 0
    summary = json.loads(out)["result"]["summary"]
    assert summary == {"classes": 36, "eliminable": 24, "non_eliminable": 12,
                       "labeled_total": 729}


def test_census_jobs_deterministic(capsys):
    rc, a = run(capsys, "census", "--vertices", "3")
    assert rc == 0
    rc, b = run(capsys, "--jobs", "2", "census", "--vertices", "3")
    assert rc == 0
    assert a == b


def test_census_oracle_flag(capsys):
    rc, out = run(capsys, "census", "--vertices", "3", "--oracle")
    assert rc == 0
    rows = json.loads(out)["result"]["classes"]
    assert all(r["oracle"]["status"] == "Free" for r in rows)
    assert all(r["classifier_status"] == "Free" for r in rows)


def test_census_five_agreement(capsys):
    # every class row asserts internally that the two eliminability routes
    # agree; the counts below were derived by that double-route census and
    # cross-checked against a Burnside orbit count
    rc, out = run(capsys, "census", "--vertices", "5")
    assert rc == 0
    summary = json.loads(out)["result"]["summary"]
    assert summary["classes"] == 406
    assert summary["labeled_total"] == 3 ** 10
    assert summary["eliminable"] == 122


def test_census_refusals(capsys):
    rc, _ = run(capsys, "census", "--vertices", "9")
    assert rc == 2


def test_oracle_spec(tmp_path, capsys):
    spec = {"k": 1, "n": [0, 0, 0], "graph": EDGELESS3}
    rc, out = run(capsys, "oracle", "--spec", write(tmp_path, "s.json", spec))
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["status"] == "Free"
    assert result["generator_degrees"] == [0, 3, 3]


@pytest.mark.parametrize("spec", [
    {"k": 1, "n": [0], "graph": {"vertices": 1, "plus": [], "minus": []}},
    {"k": 0, "n": [0, 0, 0], "graph": EDGELESS3},
])
def test_oracle_on_no_hyperplanes_stops_at_degree_zero(tmp_path, capsys, spec):
    # every multiplicity is 0: Free at degree 0, however large the budget
    rc, out = run(capsys, "oracle", "--spec", write(tmp_path, "s.json", spec),
                  "--budget", "1000000000")
    assert rc == 0
    result = json.loads(out)["result"]
    dim = len(spec["n"])
    assert result["status"] == "Free" and result["multiplicity_sum"] == 0
    assert result["dimension_table"] == result["new_generator_table"] == {"0": dim}


def test_oracle_arrangement(tmp_path, capsys):
    arr = {"dim": 2, "hyperplanes": [
        {"normal": [1, 0], "mult": 1}, {"normal": [0, 1], "mult": 1},
        {"normal": [1, -1], "mult": 1}]}
    rc, out = run(capsys, "oracle", "--arrangement", write(tmp_path, "a.json", arr))
    assert rc == 0
    assert json.loads(out)["result"]["generator_degrees"] == [1, 2]


def test_oracle_requires_exactly_one_source(tmp_path, capsys):
    rc, _ = run(capsys, "oracle")
    assert rc == 2


def test_deform_reports(tmp_path, capsys):
    dig = {"vertices": 3, "arcs": [[1, 2]]}
    rc, out = run(capsys, "deform", "--digraph", write(tmp_path, "d.json", dig))
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["a1"] is False and result["a2"] is True
    assert result["witness_triple"] == [1, 2, 3]
    assert result["status"] == "Undetermined"

    complete = {"vertices": 4,
                "arcs": [[i, j] for i in range(1, 5) for j in range(1, 5) if i != j]}
    rc, out = run(capsys, "deform", "--digraph", write(tmp_path, "c.json", complete))
    assert rc == 0
    assert json.loads(out)["result"]["status"] == "Free"


def test_malformed_files_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", "--graph", str(bad)]) == 2
    capsys.readouterr()
    assert main(["classify", "--graph",
                 write(tmp_path, "loop.json", {"vertices": 3, "plus": [[2, 2]]})]) == 2
    capsys.readouterr()
    assert main(["deform", "--digraph",
                 write(tmp_path, "dup.json",
                       {"vertices": 3, "arcs": [[1, 2], [1, 2]]})]) == 2
    capsys.readouterr()
    assert main(["classify", "--graph", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    # a large negative vertex count is refused, not sized into a digit list
    negative = {"vertices": -100000, "plus": [], "minus": []}
    assert main(["classify", "--graph", write(tmp_path, "neg.json", negative)]) == 2
    assert "vertex count must be positive" in capsys.readouterr().err
    assert main(["oracle", "--spec",
                 write(tmp_path, "negspec.json", {"graph": negative, "k": 0})]) == 2
    assert "vertex count must be positive" in capsys.readouterr().err
    # nesting too deep for the JSON decoder is refused, not a traceback
    brackets = "[" * 100_000 + "]" * 100_000
    deep_graph = tmp_path / "deep_graph.json"
    deep_graph.write_text('{"vertices": 2, "plus": %s}' % brackets)
    deep_arrangement = tmp_path / "deep_arrangement.json"
    deep_arrangement.write_text('{"dim": 2, "hyperplanes": %s}' % brackets)
    for argv in (["classify", "--graph", str(deep_graph)],
                 ["oracle", "--arrangement", str(deep_arrangement)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "nested" in err


def test_internal_assertion_exits_three(tmp_path, capsys, monkeypatch):
    import braidfree.eliminate as eliminate
    real = eliminate.find_ordering
    # the ordering route wrongly refuses 2-vertex graphs, which the
    # structural route passes: is_eliminable must report the disagreement
    monkeypatch.setattr(eliminate, "find_ordering",
                        lambda g: None if g.n == 2 else real(g))
    rc, _ = run(capsys, "census", "--vertices", "2")
    assert rc == 3


def test_free_verdict_breaking_e2_identity_exits_three(tmp_path, capsys, monkeypatch):
    # a Free verdict is certified by e2(exponents) = LMP2: an LMP2 off by one
    # must be reported as an internal failure, and only on Free verdicts
    real = cli.lmp2
    monkeypatch.setattr(cli, "lmp2", lambda spec: real(spec) + 1)
    rc = main(["classify", "--graph", write(tmp_path, "g.json", K4)])
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert err.startswith("internal error: ") and "LMP2" in err
    rc, _ = run(capsys, "classify", "--graph", write(tmp_path, "c.json", CYCLE), "--k", "1")
    assert rc == 0


def test_census_decides_each_class_once(capsys, monkeypatch):
    import braidfree.cli as cli
    import braidfree.multibraid as multibraid
    real = multibraid.is_eliminable
    calls = []

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(multibraid, "is_eliminable", counted)
    monkeypatch.setattr(cli, "is_eliminable", counted)
    rc, out = run(capsys, "census", "--vertices", "3", "--oracle")
    assert rc == 0
    assert len(calls) == json.loads(out)["result"]["summary"]["classes"] == 6


def _die_in_worker(payload):
    os._exit(1)


def test_dead_census_worker_exits_three(capsys, monkeypatch):
    import braidfree.cli as cli
    monkeypatch.setattr(cli, "_census_row", _die_in_worker)
    rc = main(["--jobs", "2", "census", "--vertices", "3"])
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert err.startswith("internal error: ") and err.count("\n") == 1


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records the pool size, maps serially."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


def test_census_pool_is_bounded(capsys, monkeypatch):
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    rc, out = run(capsys, "--jobs", str(10 ** 6), "census", "--vertices", "3")
    assert rc == 0
    classes = json.loads(out)["result"]["summary"]["classes"]
    (size,) = _SerialPool.sizes
    assert 1 <= size <= min(os.cpu_count() or 1, classes)


def test_census_jobs_below_one_exits_two(capsys):
    for jobs in ("0", "-3"):
        rc = main(["--jobs", jobs, "census", "--vertices", "3"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == "error: --jobs must be at least 1\n"


def test_oracle_negative_budget_exits_two(tmp_path, capsys):
    spec = {"k": 1, "n": [0, 0, 0], "graph": EDGELESS3}
    arrangement = {"dim": 2, "hyperplanes": [{"normal": [1, 0], "mult": 2}]}
    for flag, obj in (("--spec", spec), ("--arrangement", arrangement)):
        rc = main(["oracle", flag, write(tmp_path, "in.json", obj), "--budget", "-1"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_reports_are_byte_identical(tmp_path, capsys):
    spec = {"k": 1, "n": [0, 0, 0], "graph": EDGELESS3}
    path = write(tmp_path, "s.json", spec)
    _, a = run(capsys, "--seed", "7", "oracle", "--spec", path)
    _, b = run(capsys, "--seed", "7", "oracle", "--spec", path)
    assert a == b
    assert json.loads(a)["seed"] == 7


def test_table_format(tmp_path, capsys):
    rc, out = run(capsys, "--format", "table", "classify",
                  "--graph", write(tmp_path, "g.json", K4))
    assert rc == 0
    assert "status" in out and "Free" in out and "{" not in out.splitlines()[0]


def test_census_sampling_mode(capsys):
    rc, out = run(capsys, "census", "--vertices", "6")
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["mode"] == "sampling"
    assert result["eliminable"] + result["non_eliminable"] == result["samples"]


def test_sampling_census_refuses_the_oracle(capsys):
    rc = main(["census", "--vertices", "6", "--oracle"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: the 6-vertex census samples; it runs no oracle\n"


def test_sampling_census_refuses_no_swap(capsys):
    # the sample counts labeled colorings, so a swap-free count cannot be given
    rc = main(["--seed", "1", "census", "--vertices", "6", "--no-swap"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: the 6-vertex census samples labeled colorings; it has no --no-swap\n"


STREAM_SEEDS = [*range(65), -3, 2 ** 70]
SLICE_SIZES = (1, 3, 6, 10, 15, 21)


def _assert_slices_follow_randrange(seed, size, count):
    slices = _digit_slices(random.Random(seed), size)
    reference = random.Random(seed)
    for i in range(count):
        assert list(next(slices)) == [reference.randrange(3) for _ in range(size)], (seed, size, i)


@pytest.mark.parametrize("size", SLICE_SIZES)
def test_digit_slices_follow_randrange(size):
    # three quarters of the draws survive, so a refill holds about
    # 3 * _DRAWS_PER_REFILL / 4 codes and these slices take four refills;
    # the seeds are dealt out among the sizes
    count = 3 * _DRAWS_PER_REFILL // size
    for seed in STREAM_SEEDS[SLICE_SIZES.index(size)::len(SLICE_SIZES)]:
        _assert_slices_follow_randrange(seed, size, count)


def test_digit_slices_straddle_small_refills(monkeypatch):
    # with 5 draws a refill, nearly every slice straddles a refill, and a
    # slice longer than one refill takes several
    monkeypatch.setattr(cli, "_DRAWS_PER_REFILL", 5)
    for seed in STREAM_SEEDS:
        for size in SLICE_SIZES:
            _assert_slices_follow_randrange(seed, size, 12)


CLI = [sys.executable, "-m", "braidfree.cli"]
CLI_ENV = {**os.environ, "PYTHONPATH": str(Path(braidfree.__file__).parents[1])}


def _cli_process(argv, stdin):
    return subprocess.run([*CLI, *argv], input=stdin,
                          capture_output=True, text=True, env=CLI_ENV, timeout=60)


def test_cli_import_leaves_the_process_pool_unloaded():
    # only census --jobs N > 1 needs the pool; every other command would pay
    # for importing multiprocessing at start-up
    code = ("import sys, braidfree.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=CLI_ENV, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "[]\n"


def test_spec_graph_field_must_be_an_object(tmp_path):
    # run in a child process: a "graph" that reached open() would read the
    # graph from stdin (0) or open and close stdout (true)
    for graph in (0, True):
        path = write(tmp_path, "s.json", {"k": 1, "graph": graph})
        proc = _cli_process(["oracle", "--spec", path], stdin='{"vertices": 2}')
        assert proc.returncode == 2, graph
        assert proc.stdout == ""
        assert proc.stderr == "error: 'graph' must be a JSON object\n"


def _one_error_line(stderr):
    assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_report_to_a_full_device_exits_two():
    with open("/dev/full", "w") as full:
        proc = subprocess.run([*CLI, "census", "--vertices", "4"], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=CLI_ENV, timeout=60)
    assert proc.returncode == 2
    _one_error_line(proc.stderr)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("vertices", ["4", "9"])
def test_unwritable_stderr_keeps_exit_two(vertices):
    # 4: the report write fails; 9: an input error.  Either way the error
    # line cannot be written, and the exit code must not change.
    with open("/dev/full", "w") as full:
        proc = subprocess.run([*CLI, "census", "--vertices", vertices], stdout=full,
                              stderr=full, env=CLI_ENV, timeout=60)
    assert proc.returncode == 2


def test_report_to_a_closed_pipe_exits_two():
    # the 5-vertex census report is far larger than a pipe buffer, so the
    # writer is still writing when the reader goes away
    proc = subprocess.Popen([*CLI, "census", "--vertices", "5"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=CLI_ENV)
    try:
        assert len(proc.stdout.read(200)) == 200
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    finally:
        proc.kill()
        proc.wait()
    _one_error_line(stderr)
