"""Default reports compared byte for byte with stored golden reports."""

import importlib.util
import json
from pathlib import Path

import pytest

from braidfree.cli import main

ROOT = Path(__file__).resolve().parents[1]
BENCH_GOLDEN = ROOT / "perfbench" / "golden"
GOLDEN = ROOT / "tests" / "golden"

# the 5-vertex k=2 spec Plus 12, 13; Minus 34 that perfbench's oracle-deep runs
SPEC_K2 = {"k": 2, "n": [0, 0, 0, 0, 0],
           "graph": {"vertices": 5, "plus": [[1, 2], [1, 3]], "minus": [[3, 4]]}}


def stdout_of(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    return out


@pytest.mark.parametrize("argv, golden", [
    (["census", "--vertices", "5"], BENCH_GOLDEN / "census5.json"),
    (["census", "--vertices", "4", "--oracle"], GOLDEN / "census4_oracle.json"),
])
def test_census_matches_golden(capsys, argv, golden):
    assert stdout_of(capsys, argv) == golden.read_text(encoding="utf-8")


CENSUS6_GOLDEN = json.loads((BENCH_GOLDEN / "census6.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", [
    # seeds 1 and 2 are quick; the other stored seeds take about 20 s together
    pytest.param(seed, marks=() if seed in (1, 2) else pytest.mark.slow)
    for seed in sorted(map(int, CENSUS6_GOLDEN))])
def test_sampling_census_matches_golden(capsys, seed):
    # the seeded 10 000-sample 6-vertex census, keyed by seed as stored
    out = stdout_of(capsys, ["--seed", str(seed), "census", "--vertices", "6"])
    assert out == CENSUS6_GOLDEN[str(seed)]


def test_spec_oracle_matches_golden(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC_K2), encoding="utf-8")
    out = stdout_of(capsys, ["--seed", "0", "oracle", "--spec", str(path), "--budget", "10"])
    assert out == (BENCH_GOLDEN / "spec_k2_budget10.json").read_text(encoding="utf-8")


def test_full_spec_certificate_matches_golden(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC_K2), encoding="utf-8")
    out = stdout_of(capsys, ["oracle", "--spec", str(path)])
    assert out == (BENCH_GOLDEN / "spec_k2.json").read_text(encoding="utf-8")


# perfbench's independent reference, which writes the cone files it runs
_SPEC = importlib.util.spec_from_file_location("perfbench_reference",
                                               ROOT / "perfbench" / "reference.py")
REFERENCE = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(REFERENCE)
CONE_GOLDEN = json.loads((BENCH_GOLDEN / "cones.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(CONE_GOLDEN))
def test_cone_certificate_matches_golden(tmp_path, capsys, key):
    # the 4-vertex deformation cones at k=1, keyed [arcs, seed] as stored
    arcs, seed = json.loads(key)
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(REFERENCE.cone_obj(4, arcs, 1)), encoding="utf-8")
    out = stdout_of(capsys, ["--seed", str(seed), "oracle", "--arrangement", str(path)])
    assert out == CONE_GOLDEN[key]
