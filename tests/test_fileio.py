"""Input parsing: file formats and rejection rules."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import braidfree
from braidfree.cli import main
from braidfree.fileio import (MAX_FILE_VERTICES, InputError, load_arrangement,
                              load_digraph, load_graph, load_spec, parse_rational)


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_load_graph(tmp_path):
    path = write(tmp_path, "g.json", {"vertices": 3, "plus": [[1, 2]], "minus": [[2, 3]]})
    g = load_graph(path)
    assert g.n == 3 and g.plus_edges() == [(1, 2)] and g.minus_edges() == [(2, 3)]


@pytest.mark.parametrize("obj", [
    {"plus": []},
    {"vertices": "three"},
    {"vertices": 3, "plus": [[1, 1]]},
    {"vertices": 3, "plus": [[1, 2]], "minus": [[2, 1]]},
    {"vertices": 3, "plus": [[1, 2], [1, 2]]},
    {"vertices": 3, "plus": [[1]]},
    {"vertices": 3, "plus": "nope"},
])
def test_load_graph_rejections(tmp_path, obj):
    with pytest.raises(InputError):
        load_graph(write(tmp_path, "bad.json", obj))


def test_load_spec_nested_and_flat(tmp_path):
    nested = write(tmp_path, "a.json", {
        "k": 1, "n": [0, 1, 0], "graph": {"vertices": 3, "plus": [[1, 2]], "minus": []}})
    flat = write(tmp_path, "b.json", {
        "k": 1, "n": [0, 1, 0], "vertices": 3, "plus": [[1, 2]], "minus": []})
    assert load_spec(nested) == load_spec(flat)


@pytest.mark.parametrize("graph", [["vertices", 3], "g.json", 3.5, None])
def test_load_spec_nested_graph_must_be_an_object(tmp_path, graph):
    (tmp_path / "g.json").write_text(json.dumps({"vertices": 3}))
    with pytest.raises(InputError, match="'graph' must be a JSON object"):
        load_spec(write(tmp_path, "s.json", {"k": 1, "graph": graph}))


def test_load_digraph(tmp_path):
    g = load_digraph(write(tmp_path, "d.json", {"vertices": 3, "arcs": [[1, 2], [2, 1]]}))
    assert g.has_arc(1, 2) and g.has_arc(2, 1)
    with pytest.raises(InputError):
        load_digraph(write(tmp_path, "bad.json", {"vertices": 3, "arcs": [[1, 1]]}))


def test_parse_rational():
    assert parse_rational(3) == 3
    assert parse_rational("2/5") == Fraction(2, 5)
    with pytest.raises(InputError):
        parse_rational("x")
    for bad in (1.5, True):
        with pytest.raises(InputError):
            parse_rational(bad)


GRAPH3 = {"vertices": 3, "plus": [[1, 2]], "minus": []}


@pytest.mark.parametrize("command,flag,obj", [
    ("classify", "--graph", {"vertices": True}),
    ("classify", "--graph", {"vertices": 3, "plus": [[True, 2]]}),
    ("classify", "--graph", {"vertices": 3, "minus": [[3, True]]}),
    ("deform", "--digraph", {"vertices": True, "arcs": []}),
    ("deform", "--digraph", {"vertices": 3, "arcs": [[2, True]]}),
    ("oracle", "--spec", {"k": True, "graph": GRAPH3}),
    ("oracle", "--spec", {"k": 1, "n": [0, True, 0], "graph": GRAPH3}),
    ("oracle", "--spec", {"k": 1, "graph": {"vertices": True}}),
    ("oracle", "--arrangement", {"dim": True, "hyperplanes": [{"normal": [1], "mult": 1}]}),
    ("oracle", "--arrangement", {"dim": 2, "hyperplanes": [{"normal": [1, 0], "mult": True}]}),
    ("oracle", "--arrangement", {"dim": 2, "hyperplanes": [{"normal": [True, 0], "mult": 1}]}),
])
def test_json_booleans_are_not_integers(tmp_path, capsys, command, flag, obj):
    # bool is a subclass of int, so true/false must be refused explicitly
    rc = main([command, flag, write(tmp_path, "in.json", obj)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_load_arrangement(tmp_path):
    arr = load_arrangement(write(tmp_path, "a.json", {
        "dim": 2,
        "hyperplanes": [{"normal": ["1/2", -1], "mult": 2},
                        {"normal": [0, 1], "mult": 1}]}))
    assert arr.hyperplanes == (((1, -2), 2), ((0, 1), 1))
    for obj in ({"dim": 2, "hyperplanes": []},
                {"dim": 2, "hyperplanes": [{"normal": [1, 0]}]},
                {"dim": 2, "hyperplanes": [{"normal": [0, 0], "mult": 1}]},
                {"hyperplanes": [{"normal": [1], "mult": 1}]}):
        with pytest.raises(InputError):
            load_arrangement(write(tmp_path, "bad.json", obj))


@pytest.mark.parametrize("normal", ["12", {"0": 1, "1": 0}, 7])
def test_arrangement_normal_must_be_a_list(tmp_path, capsys, normal):
    # a string used to be read character by character, an object by its keys
    obj = {"dim": 2, "hyperplanes": [{"normal": normal, "mult": 1},
                                     {"normal": [0, 1], "mult": 1}]}
    rc = main(["oracle", "--arrangement", write(tmp_path, "a.json", obj)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("error: hyperplane 'normal' must be a list") and err.count("\n") == 1


def _cli_under_memory_limit(args, limit_bytes=400 * 2 ** 20):
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    env = {**os.environ, "PYTHONPATH": str(Path(braidfree.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "braidfree.cli", *args],
                          capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=limit)


@pytest.mark.parametrize("command,flag,obj", [
    ("classify", "--graph", {"vertices": 30000}),
    ("oracle", "--spec", {"k": 1, "graph": {"vertices": 30000}}),
    ("deform", "--digraph", {"vertices": 30000, "arcs": []}),
])
def test_vertex_count_is_capped_before_allocation(tmp_path, command, flag, obj):
    # without the cap the (n+1)^2 color matrix is allocated first; the child
    # runs under an address-space limit so that allocation cannot succeed
    proc = _cli_under_memory_limit([command, flag, write(tmp_path, "big.json", obj)])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert f"at most {MAX_FILE_VERTICES}" in proc.stderr


def test_vertex_cap_admits_the_largest_file():
    n = MAX_FILE_VERTICES
    g = load_graph({"vertices": n, "plus": [[1, n]]})
    assert g.n == n and g.plus_edges() == [(1, n)]
    assert load_digraph({"vertices": n, "arcs": [[n, 1]]}).has_arc(n, 1)
    for load, obj in ((load_graph, {"vertices": n + 1}),
                      (load_digraph, {"vertices": n + 1, "arcs": []})):
        with pytest.raises(InputError, match=f"at most {n}"):
            load(obj)


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(InputError):
        load_graph(str(tmp_path / "nope.json"))
    path = tmp_path / "broken.json"
    path.write_text("{")
    with pytest.raises(InputError):
        load_graph(str(path))
    path.write_text("[1,2]")
    with pytest.raises(InputError):
        load_graph(str(path))


def test_source_must_be_a_path_or_an_object():
    # run in a child process with stdin piped: a source that reached open()
    # would read the graph from fd 0 and close it
    code = ("import os\n"
            "from braidfree.fileio import InputError, load_graph\n"
            "try:\n"
            "    load_graph(0)\n"
            "except InputError as exc:\n"
            "    print('refused:', exc)\n"
            "os.fstat(0)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(braidfree.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], input='{"vertices": 2}',
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused: expected a JSON object or a file path, got 0\n"
    for source in (None, 3.5, ["g.json"]):
        with pytest.raises(InputError):
            load_graph(source)
