import json

import pytest

from polarhull.cli import main


def run(args):
    return main([str(a) for a in args])


def test_malformed_function_exits_one(tmp_path, capsys):
    code = run(["hull", "--function", "no-such-family", "--out", tmp_path / "x"])
    assert code == 1
    assert not (tmp_path / "x").exists()  # no partial files


def test_malformed_config_file_exits_one(tmp_path):
    code = run(["thin", "--function", "exp-reciprocal",
                "--config", tmp_path / "missing.ini", "--out", tmp_path / "x"])
    assert code == 1


def test_numeric_failure_exits_two(tmp_path):
    # gaussian poles reach |z|=1, so the Laurent tail on that circle stalls
    code = run(["decompose", "--function", "pole-series-gaussian:5",
                "--radius", 1.5, "--kmax", 12, "--out", tmp_path / "x"])
    assert code == 2


def test_hull_verdict_artifact(tmp_path):
    out = tmp_path / "run"
    code = run(["hull", "--function", "exp-reciprocal", "--point", "0",
                "--r-grid", "e,e2,e10", "--out", out])
    assert code == 0
    doc = json.loads((out / "hull.json").read_text())
    assert doc["result"]["entries"][0]["classification"] == "FIBER_EMPTY"
    assert doc["meta"]["config_sha256"]
    assert doc["meta"]["version"]


def test_hmeasure_csv_row(tmp_path):
    out = tmp_path / "run"
    code = run(["hmeasure", "--annulus", "0.1,1", "--at", "0.4",
                "--walks", 20000, "--seed", 7, "--out", out])
    assert code == 0
    lines = (out / "hmeasure.csv").read_text().strip().splitlines()
    assert lines[0].startswith("value,std_error,walks,seed,method")
    assert "config_hash" in lines[0] and "version" in lines[0]
    value = float(lines[1].split(",")[0])
    assert abs(value - 0.39794) < 0.03


def test_byte_identical_reruns(tmp_path):
    args = ["hull", "--function", "pole-series-gaussian:40", "--point", "0",
            "--r-grid", "1,2,4"]
    assert run(args + ["--out", tmp_path / "a"]) == 0
    assert run(args + ["--out", tmp_path / "b"]) == 0
    a = (tmp_path / "a" / "hull.json").read_bytes()
    b = (tmp_path / "b" / "hull.json").read_bytes()
    assert a == b


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nseed = 9\n[hmeasure]\nwalks = 5000\nat = 0.4\n")
    out = tmp_path / "out"
    code = run(["hmeasure", "--config", cfg, "--annulus", "0.1,1",
                "--walks", 2000, "--out", out])  # flag wins over config
    assert code == 0
    doc = json.loads((out / "hmeasure.json").read_text())
    assert doc["result"]["walks"] == 2000
    assert doc["result"]["seed"] == 9


def test_thin_csv_trace(tmp_path):
    out = tmp_path / "run"
    code = run(["thin", "--function", "exp-reciprocal", "--big-r", "e",
                "--point", "0", "--depth", 30, "--out", out])
    assert code == 0
    lines = (out / "thin.csv").read_text().strip().splitlines()
    assert lines[0].split(",")[:5] == ["n", "inner", "outer",
                                       "capacity_estimate", "partial_sum"]
    assert len(lines) == 31
    doc = json.loads((out / "thin.json").read_text())
    assert doc["result"]["verdict"] == "NON_THIN"


def test_fekete_segment_artifact(tmp_path):
    out = tmp_path / "run"
    code = run(["fekete", "--segment", "-1,1,501", "--m", 40, "--out", out])
    assert code == 0
    doc = json.loads((out / "fekete.json").read_text())
    assert abs(doc["result"]["capacity_estimate"]["value"] - 0.5) < 0.1


@pytest.mark.parametrize("command", [
    ["hull", "--function", "exp-reciprocal", "--tolerance", 1e-3],
    ["hmeasure", "--walks", 10, "--tolerance", 1e-3],
    ["fekete", "--segment", "-1,1,11", "--tolerance", 1e-3],
    ["thin", "--function", "exp-reciprocal", "--depth", 20, "--tolerance", 1e-3],
    ["psh", "--function", "exp-reciprocal", "--nu-max", 1, "--tolerance", 1e-3],
    # only hmeasure draws random numbers, so only hmeasure takes a seed
    ["decompose", "--function", "exp-reciprocal", "--kmax", 8, "--seed", 3],
    ["fekete", "--segment", "-1,1,11", "--seed", 3],
    ["approx", "--function", "exp-reciprocal", "--n-list", 1, "--seed", 3],
    ["psh", "--function", "exp-reciprocal", "--nu-max", 2, "--seed", 3],
    ["thin", "--function", "exp-reciprocal", "--depth", 20, "--seed", 3],
    ["hull", "--function", "exp-reciprocal", "--seed", 3],
])
def test_tolerance_rejected_where_unused(tmp_path, command):
    assert run(command + ["--out", tmp_path / "x"]) == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("section", ["run", "hull"])
def test_config_tolerance_rejected_where_unused(tmp_path, section):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{section}]\ntolerance = 1e-3\n")
    code = run(["hull", "--function", "exp-reciprocal", "--r-grid", "e",
                "--config", cfg, "--out", tmp_path / "x"])
    assert code == 1
    assert not (tmp_path / "x").exists()


def test_config_tolerance_only_from_own_section(tmp_path):
    args = ["decompose", "--function", "exp-reciprocal", "--kmax", 16]
    shared = tmp_path / "shared.ini"
    shared.write_text("[run]\ntolerance = 1e-3\n")
    assert run(args + ["--config", shared, "--out", tmp_path / "x"]) == 1
    own = tmp_path / "own.ini"
    own.write_text("[decompose]\ntolerance = 1e-6\n")
    assert run(args + ["--config", own, "--out", tmp_path / "a"]) == 0
    assert run(args + ["--tolerance", 1e-6, "--out", tmp_path / "b"]) == 0
    a = json.loads((tmp_path / "a" / "decompose.json").read_text())
    b = json.loads((tmp_path / "b" / "decompose.json").read_text())
    assert a["result"] == b["result"]


@pytest.mark.parametrize("command", [
    ["decompose", "--function", "exp-reciprocal", "--kmax", 8],
    ["approx", "--function", "exp-reciprocal", "--n-list", 1],
])
@pytest.mark.parametrize("tol", [0, -1e-8, "nan", "inf"])
def test_nonpositive_tolerance_rejected(tmp_path, command, tol):
    assert run(command + ["--tolerance", tol, "--out", tmp_path / "x"]) == 1
    assert not (tmp_path / "x").exists()


def test_hmeasure_grid_reruns_byte_identical(tmp_path):
    args = ["hmeasure", "--annulus", "0.1,1", "--at", "0.4", "--method", "grid"]
    assert run(args + ["--out", tmp_path / "a"]) == 0
    assert run(args + ["--out", tmp_path / "b"]) == 0
    a = (tmp_path / "a" / "hmeasure.json").read_bytes()
    assert a == (tmp_path / "b" / "hmeasure.json").read_bytes()
    result = json.loads(a)["result"]
    assert result["iterations"] == 844
    assert result["residual"] < 1e-8
