import json
import math
import re
import shlex
import warnings
from pathlib import Path

import pytest

from polarhull.cli import main


def run(args):
    return main([str(a) for a in args])


@pytest.mark.parametrize("spec", ["no-such-family", "exp-reciprocal:junk",
                                  "pole-series-geometric:10,0.5,zzz"])
def test_malformed_function_exits_one(tmp_path, capsys, spec):
    code = run(["hull", "--function", spec, "--out", tmp_path / "x"])
    assert code == 1
    assert not (tmp_path / "x").exists()  # no partial files


def test_malformed_config_file_exits_one(tmp_path):
    code = run(["thin", "--function", "exp-reciprocal",
                "--config", tmp_path / "missing.ini", "--out", tmp_path / "x"])
    assert code == 1


@pytest.mark.parametrize("command", [
    # gaussian poles reach |z|=1, so the Laurent tail on that circle stalls
    ["decompose", "--function", "pole-series-gaussian:5", "--radius", 1.5, "--kmax", 12],
    # the coefficients a_k = moment_k r^-k overflow
    ["decompose", "--function", "exp-reciprocal", "--radius", "1e300"],
    ["decompose", "--function", "recip-sin-pi:8", "--radius", "1e300"],
    # the integrand itself overflows on the nodes
    ["decompose", "--function", "exp-reciprocal", "--radius", "1e-300"],
    ["decompose", "--function", "recip-sin-pi:8", "--radius", "1e-300"],
    # an inner circle narrower than the grid step would fix only its center node
    ["hmeasure", "--annulus", "1e-5,1", "--at", 0.5, "--method", "grid"],
    ["hmeasure", "--annulus", "1e-300,1", "--at", 0.5, "--method", "grid"],
    # within 1e-9 of the origin, but not within SAMPLE_TOL of any sample point
    ["hull", "--function", "pole-series-gaussian:40", "--point", "1e-10", "--r-grid", "1,2,4"],
    # the target circle comes so close to the essential singularity that exp(1/z) overflows
    ["approx", "--function", "exp-reciprocal", "--target", "0,0:0.001:8"],
    # sum |c_n|/sqrt(gamma_n) divided by the level overflows to inf
    ["thin", "--function", "pole-series-gaussian", "--big-r", "5e-324"],
    # q^k on the contour overflows the coefficient integrals at the first 256 nodes
    ["approx", "--function", "recip-sin-pi:16", "--n-list", 60],
    # q_m of degree 120 overflows on the target circle of radius 1000
    ["approx", "--function", "pole-series-gaussian:120", "--n-list", 1,
     "--target", "0,0:1000:8"],
    # N = 6..9 pass every bound of level 2, but no approximant from N = 4 on converged
    ["psh", "--function", "recip-sin-pi:2", "--nu-max", 12],
])
def test_numeric_failure_exits_two(tmp_path, capsys, command):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(command + ["--out", tmp_path / "x"])
    assert code == 2
    assert not (tmp_path / "x").exists()
    # a warning would print to stderr ahead of the failure line
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("\n") == 1


def test_hmeasure_grid_takes_target_above_step(tmp_path):
    # r = 1e-2 clears the step 2/320 of the default grid
    code = run(["hmeasure", "--annulus", "1e-2,1", "--at", 0.5, "--method", "grid",
                "--out", tmp_path])
    assert code == 0
    result = json.loads((tmp_path / "hmeasure.json").read_text())["result"]
    assert result["method"] == "GRID"
    # harmonic measure of |z| = r in the annulus r < |z| < 1: log|z| / log r
    assert abs(result["value"] - math.log(0.5) / math.log(1e-2)) < 0.01


def test_hull_verdict_artifact(tmp_path):
    out = tmp_path / "run"
    code = run(["hull", "--function", "exp-reciprocal", "--point", "0",
                "--r-grid", "e,e2,e10", "--out", out])
    assert code == 0
    doc = json.loads((out / "hull.json").read_text())
    assert doc["result"]["entries"][0]["classification"] == "FIBER_EMPTY"
    assert doc["meta"]["config_sha256"]
    assert doc["meta"]["version"]


def test_hull_level_without_cover_is_a_note(tmp_path):
    # the 1/sin(pi/z) cover underflows at R = 1e300: UNKNOWN with a note, not a crash
    code = run(["hull", "--function", "recip-sin-pi", "--point", "0.5",
                "--r-grid", "2,4,1e300", "--out", tmp_path])
    assert code == 0
    entry = json.loads((tmp_path / "hull.json").read_text())["result"]["entries"][0]
    assert entry["classification"] == "UNKNOWN"
    assert "ThresholdTooSmall" in entry["notes"]


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


@pytest.mark.parametrize("function, verdict, side", [
    ("pole-series-gaussian", "INCONCLUSIVE", "outer"),
    ("exp-reciprocal", "NON_THIN", "exact"),
])
def test_thin_at_a_point_inside_a_cover_disk(tmp_path, function, verdict, side):
    # 0.5 is a pole of the series and an interior point of exp(1/z)'s level
    # disk at R = e: a disk over the point is evidence, not an error
    out = tmp_path / "run"
    assert run(["thin", "--function", function, "--point", "0.5", "--out", out]) == 0
    doc = json.loads((out / "thin.json").read_text())["result"]
    assert (doc["verdict"], doc["cover_side"]) == (verdict, side)


def test_thin_reads_every_annulus_as_hull_does(tmp_path):
    # the 1/sin(pi/z) cover holds the poles 1/n for n <= 64 and one more
    # pole on each side in each annulus 6..60 about 0, so both read all 40
    assert run(["thin", "--function", "recip-sin-pi", "--point", "0",
                "--out", tmp_path / "thin"]) == 0
    assert run(["hull", "--function", "recip-sin-pi", "--point", "0",
                "--out", tmp_path / "hull"]) == 0
    thin = json.loads((tmp_path / "thin" / "thin.json").read_text())["result"]
    entry = json.loads((tmp_path / "hull" / "hull.json").read_text())["result"]["entries"][0]
    assert thin["verdict"] == "NON_THIN"
    assert (thin["depth"], thin["cover_disks"]) == (40, 238)
    assert len((tmp_path / "thin" / "thin.csv").read_text().strip().splitlines()) == 41
    assert entry["evidence"][0] == thin  # hull's R = e is thin's default level
    assert entry["classification"] == "FIBER_EMPTY"
    assert [e["depth"] for e in entry["evidence"]] == [40, 40, 40]
    assert entry["notes"] == ""


def test_thin_far_from_the_poles_is_inconclusive(tmp_path):
    # no annulus about 5 meets the cover: the inner disks cannot show thinness
    assert run(["thin", "--function", "recip-sin-pi", "--point", "5", "--out", tmp_path]) == 0
    doc = json.loads((tmp_path / "thin.json").read_text())["result"]
    assert (doc["verdict"], doc["cover_disks"]) == ("INCONCLUSIVE", 238)


@pytest.mark.parametrize("function, verdict, disks", [
    ("recip-sin-pi", "INCONCLUSIVE", 238),
    ("recip-sin-pi:100", "NON_THIN", 308),
])
def test_thin_at_a_pole_past_the_cutoff(tmp_path, function, verdict, disks):
    # 1/100 is a pole of 1/sin(pi/z), but only a cutoff of 100 puts its disk in the cover
    assert run(["thin", "--function", function, "--point", "0.01", "--out", tmp_path]) == 0
    doc = json.loads((tmp_path / "thin.json").read_text())["result"]
    assert (doc["verdict"], doc["cover_disks"]) == (verdict, disks)


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


@pytest.mark.parametrize("command", [
    ["hmeasure", "--walks"],
    ["psh", "--function", "exp-reciprocal", "--nu-max"],
    ["thin", "--function", "exp-reciprocal", "--depth"],
    ["hull", "--function", "exp-reciprocal", "--depth"],
    ["fekete", "--segment", "-1,1,11", "--m"],
    ["approx", "--function", "exp-reciprocal", "--n-list"],
    ["approx", "--function", "exp-reciprocal", "--m"],
    ["decompose", "--function", "exp-reciprocal", "--kmax"],
])
@pytest.mark.parametrize("value", [0, -1])
def test_nonpositive_count_rejected(tmp_path, command, value):
    assert run(command + [value, "--out", tmp_path / "x"]) == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", [
    ["psh", "--function", "exp-reciprocal", "--nu-max", 1],
    ["psh", "--function", "exp-reciprocal", "--nu-max", 13],
    ["approx", "--function", "exp-reciprocal", "--n-list", "1,-2"],
    ["psh", "--function", "exp-reciprocal", "--nu-max", 2, "--tube", "0.1,1:0:0.5"],
    ["psh", "--function", "exp-reciprocal", "--nu-max", 2, "--tube", "0.1,1:-3:0.5"],
    ["psh", "--function", "exp-reciprocal", "--nu-max", 2, "--tube", "0.1,1"],
    ["psh", "--function", "exp-reciprocal", "--nu-max", 2, "--tube", "0.1,1:5:"],
    ["psh", "--function", "exp-reciprocal", "--nu-max", 2, "--tube", "0.1:5:0.5"],
    ["approx", "--function", "exp-reciprocal", "--n-list", 1, "--target", "0,0:2:0"],
    ["approx", "--function", "exp-reciprocal", "--n-list", 1, "--target", "0,0:2"],
    ["approx", "--function", "exp-reciprocal", "--n-list", 1, "--target", "0,0:-2:8"],
    ["fekete", "--segment", "0,1,0"],
    ["fekete", "--segment", "0,1"],
    ["fekete", "--segment", "0,x,5"],
    ["fekete", "--segment", "0,inf,5"],
    ["psh", "--function", "exp-reciprocal", "--nu-max", 2, "--tube", "nan,1:5:0.5"],
    ["hmeasure", "--annulus", "1"],
    ["hmeasure", "--annulus", "0,1"],
    ["hull", "--function", "exp-reciprocal", "--point", "nan"],
    ["thin", "--function", "exp-reciprocal", "--point", "inf"],
    ["hmeasure", "--at", "nan"],
    ["hmeasure", "--at", "0.05", "--walks", "1000"],
    ["hmeasure", "--at", "2"],
    ["hmeasure", "--annulus", "1,0.1"],
    ["fekete", "--segment", "0,0,5"],
    ["approx", "--function", "exp-reciprocal", "--n-list", 1, "--target", "0,0:1e-300:8"],
    ["thin", "--function", "pole-series-gaussian:10", "--big-r", "0"],
    ["thin", "--function", "pole-series-gaussian:10", "--big-r", "nan"],
    ["thin", "--function", "pole-series-gaussian:10", "--big-r", "-1"],
    ["thin", "--function", "pole-series-gaussian:10", "--big-r", "inf"],
    ["thin", "--function", "exp-reciprocal", "--big-r", "e1000"],
    ["hull", "--function", "pole-series-gaussian:10", "--r-grid", "0,1,2"],
    ["decompose", "--function", "exp-reciprocal", "--radius", "0"],
    ["decompose", "--function", "exp-reciprocal", "--radius", "-1"],
    ["decompose", "--function", "exp-reciprocal", "--radius", "nan"],
    ["decompose", "--function", "pole-series-gaussian:0"],
    ["thin", "--function", "pole-series-geometric:0"],
    ["thin", "--function", "recip-sin-pi:0"],
    ["hull", "--function", "exp-reciprocal", "--depth", "61"],
    ["thin", "--function", "exp-reciprocal", "--depth", "61"],
    ["hull", "--function", "exp-reciprocal", "--r-grid", "e,e2"],
    ["hull", "--function", "exp-reciprocal", "--r-grid", "e,e,e"],
    ["hull", "--function", "exp-reciprocal", "--r-grid", "e2,e,e2"],
    ["approx", "--function", "exp-reciprocal", "--n-list", "2,1"],
    ["approx", "--function", "exp-reciprocal", "--n-list", "1,1"],
    ["approx", "--function", "recip-sin-pi:8", "--m", 1000],
    # the target node 0.5 is the sample point 1/2
    ["approx", "--function", "recip-sin-pi:8", "--target", "0,0:0.5:64"],
    ["hmeasure", "--seed", -1],
    # 4 (kmax + 1) start nodes round up to 2^17, above the 2^16 quadrature cap
    ["decompose", "--function", "exp-reciprocal", "--kmax", 16384],
    # an approximant's quadrature starts at 4m nodes, above the 2^14 cap for m > 4096
    ["approx", "--function", "recip-sin-pi:2100", "--m", 4097, "--n-list", 1],
    ["approx", "--function", "recip-sin-pi:2048", "--n-list", 1],
    # psh pins m to the sample size, here 4201
    ["psh", "--function", "recip-sin-pi:2100", "--nu-max", 2],
    # the step overflows, so linspace spans NaN and inf: no finite sample
    pytest.param(["fekete", "--segment", "-1e308,1e308,3"], marks=pytest.mark.filterwarnings(
        "ignore:overflow encountered:RuntimeWarning",
        "ignore:invalid value encountered:RuntimeWarning")),
])
def test_out_of_range_setting_rejected(tmp_path, monkeypatch, command):
    _forbid_library_calls(monkeypatch)
    assert run(command + ["--out", tmp_path / "x"]) == 1
    assert not (tmp_path / "x").exists()


def _forbid_library_calls(monkeypatch):
    # settings are checked before any computation: none of these may run
    for name in ("certify_schedule", "convergence_scan", "leja_points", "harmonic_measure",
                 "laurent_split", "sublevel_cover", "wiener_test", "classify_fiber"):
        monkeypatch.setattr(f"polarhull.cli.{name}", lambda *a, _n=name, **k: pytest.fail(_n))


@pytest.mark.parametrize("command, ini", [
    (["hmeasure"], "[hmeasure]\nmethod = foo\n"),
    (["hmeasure"], "[hmeasure]\nseed = x\n"),
    (["thin", "--function", "exp-reciprocal"], "[thin]\ndepth = 61\n"),
    (["decompose", "--function", "exp-reciprocal"], "[decompose]\nradius = nan\n"),
], ids=["method-foo", "seed-x", "depth-61", "radius-nan"])
def test_config_value_checked_like_its_flag(tmp_path, monkeypatch, command, ini):
    _forbid_library_calls(monkeypatch)
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini)
    assert run(command + ["--config", cfg, "--out", tmp_path / "x"]) == 1
    assert not (tmp_path / "x").exists()


def test_config_file_run_records_typed_options(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nfunction = exp-reciprocal\n[hmeasure]\nwalks = 5000\n")
    assert run(["hmeasure", "--config", cfg, "--out", tmp_path / "x"]) == 0
    config = json.loads((tmp_path / "x" / "hmeasure.json").read_text())["config"]
    assert config["walks"] == 5000
    assert "function" not in config  # not an option of hmeasure


def _readme_block(heading, lang):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(rf"## {heading}\n.*?```{lang}\n(.*?)```", readme, re.S).group(1)


def _readme_commands():
    block = _readme_block("CLI", "sh")
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("polarhull ")]


@pytest.mark.parametrize("args", _readme_commands(), ids=lambda args: args[0])
def test_readme_cli_commands_run(tmp_path, args):
    out = args.index("--out")
    assert run(args[:out + 1] + [tmp_path] + args[out + 2:]) == 0
    assert (tmp_path / f"{args[0]}.json").exists()


def _schema_keys(command):
    """First words of the backticked spans in `command`'s bullet of the artifact schema."""
    schema = (Path(__file__).resolve().parents[1] / "docs" / "artifact-schema.md").read_text()
    bullet = re.search(rf"^- `{command}`:(.*?)(?=^- |^$)", schema, re.S | re.M).group(1)
    return {span.split()[0] for span in re.findall(r"`([^`]+)`", bullet)}


@pytest.mark.parametrize("args", _readme_commands(), ids=lambda args: args[0])
def test_artifact_keys_are_documented(tmp_path, args):
    out = args.index("--out")
    assert run(args[:out + 1] + [tmp_path] + args[out + 2:]) == 0
    result = json.loads((tmp_path / f"{args[0]}.json").read_text())["result"]
    keys = {args[0]: set(result)}
    for command, rows in (("psh", "levels"), ("hull", "entries"), ("approx", "entries")):
        if args[0] == command:
            keys[command] |= {k for row in result[rows] for k in row}
    if args[0] == "hull":
        keys["thin"] = {k for e in result["entries"] for rep in e["evidence"] for k in rep}
    for command, found in keys.items():
        assert found <= _schema_keys(command), (command, found - _schema_keys(command))


def test_readme_example_prints_its_comments(capsys):
    block = _readme_block("Example", "python")
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert prints and all("#" in line for line in prints)
    exec(block, {})
    assert capsys.readouterr().out.splitlines() == [line.split("#", 1)[1].strip()
                                                    for line in prints]


def test_hmeasure_grid_reruns_byte_identical(tmp_path):
    args = ["hmeasure", "--annulus", "0.1,1", "--at", "0.4", "--method", "grid"]
    assert run(args + ["--out", tmp_path / "a"]) == 0
    assert run(args + ["--out", tmp_path / "b"]) == 0
    a = (tmp_path / "a" / "hmeasure.json").read_bytes()
    assert a == (tmp_path / "b" / "hmeasure.json").read_bytes()
    result = json.loads(a)["result"]
    assert result["iterations"] == 844
    assert result["residual"] < 1e-8


def test_psh_artifact_lists_every_try(tmp_path):
    out = tmp_path / "run"
    assert run(["psh", "--function", "exp-reciprocal", "--nu-max", 3, "--out", out]) == 0
    levels = json.loads((out / "psh.json").read_text())["result"]["levels"]
    start = 1
    for lev in levels:
        tried = lev["tried"]
        assert [t["big_n"] for t in tried] == list(range(start, lev["big_n"] + 1))
        assert {k: tried[-1][k] for k in ("h_bound_graph", "h_bound_box", "h_bound_offgraph")} == {
            k: lev[k] for k in ("h_bound_graph", "h_bound_box", "h_bound_offgraph")}
        assert tried[-1]["converged"] is True
        start = lev["big_n"]
