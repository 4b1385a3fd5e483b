"""CLI surface: schemas, determinism, exit codes."""

import json
import os

from braidfree.cli import main


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


def test_internal_assertion_exits_three(tmp_path, capsys, monkeypatch):
    import braidfree.cli as cli
    monkeypatch.setattr(cli, "structurally_eliminable", lambda g: False)
    rc, _ = run(capsys, "census", "--vertices", "2")
    assert rc == 3


def _die_in_worker(payload):
    os._exit(1)


def test_dead_census_worker_exits_three(capsys, monkeypatch):
    import braidfree.cli as cli
    monkeypatch.setattr(cli, "_census_row", _die_in_worker)
    rc = main(["--jobs", "2", "census", "--vertices", "3"])
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert err.startswith("internal error: ") and err.count("\n") == 1


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
