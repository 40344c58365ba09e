import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from translab import cli, csf, elliptic, grid, io as tio, radial
from translab.errors import TranslabError

SRC = Path(__file__).resolve().parents[1] / "src"


def wavy_grid(nx=9, ny=7):
    return grid.from_function(lambda X, Y: np.sin(X) * np.cos(Y) / 3,
                              -1, 1, -1, 1, nx, ny)


def test_grid_csv_roundtrip_bit_exact(tmp_path):
    g = wavy_grid()
    path = tmp_path / "g.csv"
    tio.write_grid_csv(g, path)
    g2 = tio.read_grid_csv(path)
    assert g2.nx == g.nx and g2.ny == g.ny
    assert g2.hx == g.hx and g2.hy == g.hy and g2.x0 == g.x0 and g2.y0 == g.y0
    assert np.array_equal(g2.values, g.values)


def test_grid_csv_rejects_foreign_file(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(TranslabError, match="is not a grid CSV"):
        tio.read_grid_csv(path)


def test_grid_csv_rejects_truncated_file(tmp_path):
    path = tmp_path / "g.csv"
    tio.write_grid_csv(wavy_grid(5, 5), path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-3]))
    with pytest.raises(TranslabError, match="node indices must cover each of the 5x5"):
        tio.read_grid_csv(path)


_UNPARSED_ROWS = ["1,2,0.5,0.5", "1,2,0.5,0.5,0.1,9", "1,2,0.5,0.5,abc",
                  "x,2,0.5,0.5,0.1", "1,2,abc,0.5,0.1", "1,2,0.5,abc,0.1"]
_MISINDEXED_ROWS = ["5,2,0.5,0.5,0.1", "-1,2,0.5,0.5,0.1", "1.5,2,0.5,0.5,0.1",
                    "1,1,0.5,0.5,0.1"]


@pytest.mark.parametrize("row", _UNPARSED_ROWS + _MISINDEXED_ROWS)
def test_grid_csv_rejects_malformed_row(tmp_path, row):
    # each variant replaces node (1, 2) of a complete 5x5 file; a row that
    # parses but names a wrong node fails the index check
    path = tmp_path / "g.csv"
    tio.write_grid_csv(wavy_grid(5, 5), path)
    lines = path.read_text().splitlines()
    k = next(n for n, line in enumerate(lines) if line.startswith("1,2,"))
    lines[k] = row
    path.write_text("\n".join(lines) + "\n")
    match = ("malformed grid CSV" if row in _UNPARSED_ROWS
             else "node indices must cover each of the 5x5")
    with pytest.raises(TranslabError, match=match):
        tio.read_grid_csv(path)


@pytest.mark.parametrize("row", ["1,2,3,4,5", "1,2,3,4,5,abc", "1,2,3,4,5,6,7"])
def test_profile_csv_rejects_malformed_row(tmp_path, row):
    path = tmp_path / "p.csv"
    tio.write_profile_csv(radial.shoot_bowl(2, 1.0, 1e-2), path)
    lines = path.read_text().splitlines()
    lines[5] = row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TranslabError, match="malformed profile CSV"):
        tio.read_profile_csv(path)


def test_profile_csv_rejects_truncated_file(tmp_path):
    path = tmp_path / "p.csv"
    tio.write_profile_csv(radial.shoot_bowl(2, 5.0, 1e-2), path)
    lines = path.read_text().splitlines(keepends=True)
    assert lines[0].split()[-1] == "rows=501"
    path.write_text("".join(lines[:-100]))
    with pytest.raises(TranslabError, match="401 rows, header records 501"):
        tio.read_profile_csv(path)


def test_geometry_csv_column_order(tmp_path):
    g = wavy_grid()
    path = tmp_path / "geom.csv"
    tio.write_geometry_csv(g, path)
    header = path.read_text().splitlines()[0]
    assert header == "i,j,x,y,u,W,H,kappa1,kappa2,normA2,Q2,flags"


def test_geometry_json_matches_csv_layout(tmp_path):
    g = wavy_grid()
    path = tmp_path / "geom.json"
    tio.write_geometry_json(g, path)
    payload = json.loads(path.read_text())
    assert payload["columns"][:5] == ["i", "j", "x", "y", "u"]
    assert len(payload["nodes"]) == g.nx * g.ny
    # margin nodes flagged, NaN encoded as string sentinel
    assert payload["nodes"][0][-1] & 1


def test_profile_csv_roundtrip(tmp_path):
    p = radial.shoot_bowl(2, 3.0, 5e-3)
    path = tmp_path / "p.csv"
    tio.write_profile_csv(p, path)
    p2 = tio.read_profile_csv(path)
    assert p2.n == 2 and p2.kind == p.kind and p2.lam is None
    assert np.array_equal(p2.r, p.r)
    assert np.array_equal(p2.u, p.u)
    assert np.array_equal(p2.psi, p.psi)


def test_log_csv_header_and_empty(tmp_path):
    log = csf.SingularityLog(times=np.zeros(0), Amax=np.zeros(0),
                             length=np.zeros(0), area=np.zeros(0))
    path = tmp_path / "log.csv"
    tio.write_log_csv(log, path)
    assert path.read_text() == "t,Amax,length,area\n"


def test_obj_export_counts(tmp_path):
    g = grid.from_function(lambda X, Y: X + Y, 0, 1, 0, 1, 3, 3)
    path = tmp_path / "m.obj"
    tio.export_grid_obj(g, path, provenance="unit test")
    lines = path.read_text().splitlines()
    assert sum(1 for ln in lines if ln.startswith("v ")) == 9
    assert sum(1 for ln in lines if ln.startswith("f ")) == 4
    assert any(ln.startswith("# command:") for ln in lines)


def test_obj_export_refuses_nan(tmp_path):
    g = wavy_grid()
    g.values[0, 0] = np.nan
    with pytest.raises(TranslabError, match="refusing OBJ export: non-finite heights"):
        tio.export_grid_obj(g, tmp_path / "bad.obj")


def test_revolution_obj_counts(tmp_path):
    p = radial.shoot_bowl(2, 1.0, 1e-2)
    path = tmp_path / "rev.obj"
    tio.export_revolution_obj(p, path, samples=16)
    lines = path.read_text().splitlines()
    nv = sum(1 for ln in lines if ln.startswith("v "))
    nf = sum(1 for ln in lines if ln.startswith("f "))
    assert nv == len(p.r) * 16
    assert nf == (len(p.r) - 1) * 16


def test_report_json_deterministic():
    rep = radial.fit_asymptotics(radial.shoot_bowl(2, 30.0, 1e-2), 10.0, 30.0)
    a = tio.report_to_json(rep)
    b = tio.report_to_json(rep)
    assert a == b
    payload = json.loads(a)
    assert "quadCoeff" in payload and "version" in payload


# --- CLI ------------------------------------------------------------------------


def test_cli_catalog_residual(capsys):
    rc = cli.main(["catalog", "residual", "--kind", "grim", "--h", "0.05"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["maxAbs"] < 0.5  # edge-adjacent truncation dominates at h = 0.05


def test_cli_radial_pipeline(tmp_path, capsys):
    prof = tmp_path / "prof.csv"
    rc = cli.main(["radial", "shoot", "--kind", "bowl", "--n", "2",
                   "--rmax", "30", "--h", "0.005", "--out", str(prof)])
    assert rc == 0
    capsys.readouterr()
    rc = cli.main(["radial", "fit", "--in", str(prof),
                   "--rlo", "10", "--rhi", "30"])
    assert rc == 0
    fit = json.loads(capsys.readouterr().out)
    assert abs(fit["quadCoeff"] - 0.5) < 5e-3


def test_cli_delta_wing_and_analyze(tmp_path, capsys):
    wing = tmp_path / "wing.csv"
    report = tmp_path / "report.json"
    obj = tmp_path / "wing.obj"
    rc = cli.main(["elliptic", "delta-wing", "--b", "2.2214414690791831",
                   "--L", "8", "--nx", "121", "--ny", "49",
                   "--out", str(wing), "--report", str(report),
                   "--obj", str(obj)])
    assert rc == 0
    rep = json.loads(report.read_text())
    assert rep["finalResidualMax"] <= 1e-9
    assert len(rep["centerHessian"]) == 2
    assert obj.exists()
    capsys.readouterr()

    rc = cli.main(["analyze", "jacobi", "--in", str(wing)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["maxJacobiDefect"] < 1.0

    rc = cli.main(["analyze", "sx", "--in", str(wing)])
    assert rc == 0
    sx = json.loads(capsys.readouterr().out)
    assert sx["fracInequalityHolds"] >= 0.9

    rc = cli.main(["analyze", "firstvar", "--in", str(wing),
                   "--bump", "0,0,1.0", "--eps", "1e-4"])
    assert rc == 0
    fv = json.loads(capsys.readouterr().out)
    assert abs(fv["firstVariation"]) < 1.0

    rc = cli.main(["export", "obj", "--in", str(wing), "--out",
                   str(tmp_path / "wing2.obj")])
    assert rc == 0


def test_cli_continuation_reports_factorizations(tmp_path):
    report = tmp_path / "cont.json"
    rc = cli.main(["elliptic", "continuation", "--b-start", "2.0",
                   "--b-end", "2.2", "--steps", "1", "--L", "8", "--nx", "81",
                   "--ny", "41", "--report", str(report)])
    assert rc == 0
    cont = json.loads(report.read_text())
    assert len(cont["factorizations"]) == len(cont["b"]) == 2
    assert cont["factorizations"] == [math.ceil(i / 2)
                                      for i in cont["iterations"]]


def test_cli_csf_run(tmp_path, capsys):
    log = tmp_path / "log.csv"
    rc = cli.main(["csf", "run", "--shape", "circle", "--radius", "1",
                   "--n", "96", "--stop-amax", "50", "--out", str(log)])
    assert rc == 0
    verdict = json.loads(capsys.readouterr().out)
    assert abs(verdict["fittedT"] - 0.5) < 5e-3
    assert verdict["typeVerdict"] == "TypeI"
    assert verdict["stopReason"] == "stopAmax"
    header = log.read_text().splitlines()[0]
    assert header == "t,Amax,length,area"


def test_cli_csf_compare(capsys):
    rc = cli.main(["csf", "compare", "--shape1", "circle:1",
                   "--shape2", "circle:1", "--gap", "3", "--n", "64",
                   "--stop-amax", "30"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "PASS"



def test_cli_csf_compare_reports_steps_and_stop_reason(capsys):
    rc = cli.main(["csf", "compare", "--shape1", "circle:1",
                   "--shape2", "circle:1", "--gap", "3", "--n", "64",
                   "--stop-amax", "30"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["stopReason"] == "stopAmax"
    assert isinstance(out["steps"], int) and out["steps"] > 0

def test_cli_csf_reruns_byte_identical(tmp_path):
    log, run_json, cmp_json = (tmp_path / f for f in ("log.csv", "run.json", "cmp.json"))
    argvs = (["csf", "run", "--shape", "ellipse", "--n", "64", "--stop-amax", "50",
              "--out", str(log), "--report", str(run_json)],
             ["csf", "compare", "--shape1", "circle:1", "--shape2", "circle:2",
              "--n", "48", "--stop-amax", "30", "--report", str(cmp_json)])
    outputs = []
    for _ in range(2):
        for argv in argvs:
            assert cli.main(argv) == 0
        outputs.append([p.read_bytes() for p in (log, run_json, cmp_json)])
    assert outputs[0] == outputs[1]


def test_cli_config_precedence(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"h": 0.04, "kind": "grim"}))
    rc = cli.main(["catalog", "residual", "--config", str(cfgfile),
                   "--h", "0.08"])
    assert rc == 0
    out1 = json.loads(capsys.readouterr().out)
    rc = cli.main(["catalog", "residual", "--h", "0.08"])
    out2 = json.loads(capsys.readouterr().out)
    assert out1["maxAbs"] == out2["maxAbs"]  # flag overrode the config


def test_cli_config_yields_to_flag_with_another_dest(tmp_path, capsys):
    # --in stores to "infile"; an explicit --in must win over the config's
    paths = []
    for name, amp in (("a.csv", 0.1), ("b.csv", 0.3)):
        paths.append(tmp_path / name)
        tio.write_grid_csv(grid.from_function(
            lambda X, Y: amp * np.sin(X) * np.cos(Y), -1, 1, -1, 1, 21, 21),
            paths[-1])
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"infile": str(paths[1])}))
    results = []
    for argv in (["--in", str(paths[0]), "--config", str(cfgfile)],
                 ["--in", str(paths[0])], ["--in", str(paths[1])]):
        assert cli.main(["analyze", "jacobi"] + argv) == 0
        results.append(json.loads(capsys.readouterr().out)["maxJacobiDefect"])
    assert results[0] == results[1] != results[2]


def test_cli_config_rejects_unknown_key(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"not_a_flag": 1}))
    rc = cli.main(["catalog", "residual", "--config", str(cfgfile)])
    assert rc == 2


@pytest.mark.parametrize("cfg", [{"h": "abc"}, {"kind": "bogus"}, {"h": [0.01]}])
def test_cli_config_rejects_bad_value(tmp_path, capsys, cfg):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfg))
    assert cli.main(["catalog", "residual", "--config", str(cfgfile)]) == 2


def test_cli_config_values_are_typed(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"h": "0.01"}))
    assert cli.main(["catalog", "residual", "--config", str(cfgfile)]) == 0
    out1 = json.loads(capsys.readouterr().out)
    assert cli.main(["catalog", "residual", "--h", "0.01"]) == 0
    out2 = json.loads(capsys.readouterr().out)
    del out1["command"], out2["command"]
    assert out1 == out2


@pytest.mark.parametrize("before", [["--config", "{cfg}", "csf"],
                                    ["csf", "--config", "{cfg}"]],
                         ids=["before-group", "before-subcommand"])
def test_cli_config_before_the_subcommand_is_a_usage_error(tmp_path, capsys,
                                                           before):
    # a group parser's --config default used to overwrite it, so the config
    # was silently ignored; only the subcommand takes --config, and the
    # message says so instead of naming the path as an invalid choice
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"radius": 0.5}))
    tail = ["run", "--n", "64", "--out", str(tmp_path / "log.csv")]
    with pytest.raises(SystemExit) as info:
        cli.main([a.format(cfg=cfg) for a in before] + tail)
    assert info.value.code == 2
    assert "--config goes after the subcommand" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_cli_abbreviated_flag_is_a_usage_error(tmp_path):
    # --stop would abbreviate --stop-amax, but _apply_config recognises only
    # full spellings, so the config's stop-amax would beat the explicit flag
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"stop-amax": 100}))
    with pytest.raises(SystemExit) as info:
        cli.main(["csf", "run", "--n", "64", "--stop", "50", "--config",
                  str(cfg), "--out", str(tmp_path / "log.csv")])
    assert info.value.code == 2
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_cli_config_after_the_subcommand_applies(tmp_path, capsys):
    cfg, report = tmp_path / "cfg.json", tmp_path / "run.json"
    cfg.write_text(json.dumps({"radius": 0.5}))
    assert cli.main(["csf", "run", "--config", str(cfg), "--n", "64",
                     "--out", str(tmp_path / "log.csv"),
                     "--report", str(report)]) == 0
    assert abs(json.loads(report.read_text())["fittedT"] - 0.125) < 1e-3


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_cli_csf_refuses_stop_amax_not_positive(tmp_path, capsys, value):
    # nan used to run to dtUnderflow and -1 to stop at t = 0, both exit 0
    log = tmp_path / "log.csv"
    for sub in (["run", "--out", str(log)], ["compare"]):
        rc = cli.main(["csf", *sub, "--n", "64", "--stop-amax", value])
        assert rc == 1
        assert capsys.readouterr().err == "error: stopAmax must be positive\n"
    assert not log.exists()


def test_cli_compare_refuses_a_point_before_any_distance(tmp_path):
    # the distance check used to divide by the zero-length edges first and
    # print numpy's RuntimeWarning ahead of the error line
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "translab.cli", "csf",
                           "compare", "--shape1", "circle:0"], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert proc.stderr == "error: curvature not finite at t=0.0\n"


def test_cli_numerical_failure_exit_code(tmp_path):
    rc = cli.main(["elliptic", "delta-wing", "--b", "1.0", "--L", "8",
                   "--nx", "41", "--ny", "41"])
    assert rc == 1  # b <= pi/2 is a numerical-domain error


def test_cli_delta_wing_stall_is_the_solver_error(capsys):
    # near the threshold the one Newton solve stalls; the message is the
    # damping floor's and names no width the user did not give
    rc = cli.main(["elliptic", "delta-wing", "--b", "1.5718", "--nx", "41",
                   "--ny", "33"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: damping floor hit at iteration ")
    assert err.count("\n") == 1 and "b =" not in err


def test_cli_singular_jacobian_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(elliptic, "_jacobian", lambda jet, hx, hy:
                        sp.csc_matrix((jet[0].size, jet[0].size)))
    rc = cli.main(["elliptic", "delta-wing", "--b", "2.0", "--L", "8",
                   "--nx", "41", "--ny", "41"])
    assert rc == 1
    assert "singular" in capsys.readouterr().err


def test_cli_bad_shape_spec():
    rc = cli.main(["csf", "compare", "--shape1", "blob:1",
                   "--shape2", "circle:2"])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["csf", "run", "--n", "3", "--out", "{tmp}/log.csv"],
    ["csf", "compare", "--n", "3"],
], ids=["run", "compare"])
def test_cli_csf_too_few_points_is_the_curve_error(tmp_path, capsys, argv):
    # the curve constructor's error, not a shape-spec usage error
    rc = cli.main([a.format(tmp=tmp_path) for a in argv])
    assert rc == 1
    assert capsys.readouterr().err == "error: curve needs at least 8 points\n"


@pytest.mark.parametrize("argv", [
    ["csf", "run", "--radius", "0"],
    ["csf", "run", "--shape", "ellipse", "--b", "0"],
], ids=["radius0", "b0"])
def test_cli_csf_nan_curvature_exits_at_once(tmp_path, argv):
    # NaN Amax used to give a NaN dt and a flow toward maxSteps; a separate
    # interpreter bounds the time a regression would take
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "translab.cli", *argv,
                           "--out", str(tmp_path / "log.csv")], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: curvature not finite")


OUT_OF_RANGE = r"cannot be flowed: lengths must lie in \[1e-60, 1e\+60\]"
HUGE_GRID = (r".*huge\.csv: node indices must cover each of the "
             r"100000000x100000000 nodes exactly once \(1 rows for "
             r"10000000000000000 nodes\)")


@pytest.mark.parametrize("argv, err", [
    (["csf", "run", "--radius", "1e200", "--n", "16", "--out", "{tmp}/l.csv"],
     rf"curve of length 6\.2\d*e\+200 {OUT_OF_RANGE}"),
    (["csf", "run", "--shape", "ellipse", "--a", "1e308", "--b", "1", "--n",
      "16", "--out", "{tmp}/l.csv"],
     rf"curve of length inf {OUT_OF_RANGE}"),
    (["csf", "run", "--radius", "5e154", "--n", "16", "--out", "{tmp}/l.csv"],
     rf"curve of length 3\.1\d*e\+155 {OUT_OF_RANGE}"),
    (["csf", "run", "--radius", "1e150", "--n", "16", "--out", "{tmp}/l.csv"],
     rf"curve of length 6\.2\d*e\+150 {OUT_OF_RANGE}"),
    (["csf", "run", "--radius", "1e-100", "--n", "16", "--stop-amax", "1e150",
      "--out", "{tmp}/l.csv"],
     rf"curve of length 6\.2\d*e-100 {OUT_OF_RANGE}"),
    (["csf", "run", "--radius", "1e-160", "--n", "16", "--stop-amax", "1e300",
      "--out", "{tmp}/l.csv"],
     r"stopAmax must have a finite square \(at most 1\.3407807929942596e\+154\), "
     r"got 1e\+300"),
    (["csf", "run", "--n", "100000000", "--out", "{tmp}/l.csv"],
     r"curve of n = 100000000 points exceeds the bound of 1000000 points"),
    (["csf", "compare", "--n", "100000"],
     r"curves of n = 100000 and n = 100000 points need 10000000000 "
     r"vertex-segment pairs per distance, more than 1048576"),
    (["catalog", "residual", "--h", "1e-7"],
     r"step h = 1e-07 needs more than 10000000 grid nodes"),
    (["analyze", "sx", "--in", "{tmp}/huge.csv"], HUGE_GRID),
    (["export", "obj", "--in", "{tmp}/huge.csv", "--out", "{tmp}/h.obj"],
     HUGE_GRID),
    (["elliptic", "delta-wing", "--b", "2", "--nx", "100000000", "--ny", "33"],
     r"strip grid of nx x ny = 100000000 x 33 = 3300000000 nodes exceeds "
     r"the bound of 1000000 nodes"),
    (["elliptic", "continuation", "--b-start", "2", "--b-end", "3",
      "--steps", "100000000"],
     r"continuation of steps = 100000000 exceeds the bound of 1000 steps"),
    (["export", "obj", "--in", "{tmp}/p.csv", "--out", "{tmp}/p.obj",
      "--angular-samples", "100000000"],
     r"revolution export of 101 rings x 100000000 angular samples exceeds "
     r"the bound of 4194304 vertices"),
], ids=["circle-1e200", "ellipse-1e308", "circle-5e154", "circle-1e150",
        "circle-1e-100", "stop-amax-1e300", "run-n-1e8", "compare-n-1e5",
        "catalog-h", "sx-grid-1e16", "obj-grid-1e16", "strip-nx-1e8",
        "cont-steps-1e8", "obj-samples-1e8"])
def test_cli_refuses_a_scale_it_cannot_compute(tmp_path, capsys, argv, err):
    # each used to end otherwise: Amax^2 underflowing to 0 in a
    # ZeroDivisionError (1e200, 1e308), t overflowing to inf in exit 0 with
    # no stopReason (5e154), numpy RuntimeWarnings before the error line
    # (1e150) or after a flow whose times squared underflow in the fit
    # (1e-100), amax ** 2 in an OverflowError (stopAmax 1e300), h = 1e-7,
    # both n, the grid header's 10^16 nodes, the 3.3e9 strip nodes and the
    # 10^8 angular samples in a failed allocation, and 10^8 continuation
    # steps in a run of more than a minute
    (tmp_path / "huge.csv").write_text(
        "# translab-grid nx=100000000 ny=100000000 hx=1 hy=1 x0=0 y0=0\n"
        "i,j,x,y,u\n0,0,0,0,0\n")
    tio.write_profile_csv(radial.shoot_bowl(2, 1.0, 1e-2), tmp_path / "p.csv")
    rc = cli.main([a.format(tmp=tmp_path) for a in argv])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(lines) == 1 and re.fullmatch(rf"error: {err}.*", lines[0])


@pytest.mark.parametrize("argv", [
    ["radial", "fit", "--in", "{tmp}/missing.csv", "--rlo", "1", "--rhi", "2"],
    ["export", "obj", "--in", "{tmp}/missing.csv", "--out", "{tmp}/m.obj"],
    ["catalog", "residual", "--config", "{tmp}/nope.json"],
    ["radial", "shoot", "--rmax", "1", "--h", "0.01",
     "--out", "{tmp}/nonexistent/dir/b.csv"],
], ids=["fit-in", "export-in", "config", "shoot-out"])
def test_cli_unopenable_path_is_an_error_line(tmp_path, capsys, argv):
    rc = cli.main([a.format(tmp=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("samples", ["0", "-3", "2"])
def test_cli_revolution_export_needs_three_samples(tmp_path, capsys, samples):
    prof, out = tmp_path / "p.csv", tmp_path / "p.obj"
    tio.write_profile_csv(radial.shoot_bowl(2, 1.0, 1e-2), prof)
    rc = cli.main(["export", "obj", "--in", str(prof), "--out", str(out),
                   "--angular-samples", samples])
    assert rc == 1 and "angular samples" in capsys.readouterr().err
    assert not out.exists()


def test_cli_catalog_plane_report(capsys):
    rc = cli.main(["catalog", "residual", "--kind", "plane"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["maxGrad"] == "inf" and out["is_graph"] is False
    assert out["maxAbs"] == 0.0


@pytest.mark.parametrize("kind, theta, code, err", [
    ("grim", "0.3", 2, "usage error: --theta applies to --kind tilted, not grim"),
    ("plane", "0.3", 2, "usage error: --theta applies to --kind tilted, not plane"),
    ("tilted", "2", 1, "error: theta must lie in [0, pi/2)"),
])
def test_cli_catalog_refuses_a_theta_outside_its_kind(capsys, kind, theta,
                                                       code, err):
    rc = cli.main(["catalog", "residual", "--kind", kind, "--theta", theta])
    assert rc == code
    assert capsys.readouterr().err == err + "\n"


@pytest.mark.parametrize("index, kind", [(0, "catenoid-upper"),
                                          (1, "catenoid-lower")])
def test_cli_shoots_one_catenoid_wing(tmp_path, capsys, index, kind):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    rc = cli.main(["radial", "shoot", "--kind", kind, "--lam", "1",
                   "--rmax", "2", "--h", "0.01", "--out", str(got)])
    assert rc == 0
    tio.write_profile_csv(radial.shoot_catenoid(2, 1.0, 2.0, 0.01)[index], want)
    assert got.read_bytes() == want.read_bytes()


def test_cli_csf_compare_ellipse_shape(capsys):
    rc = cli.main(["csf", "compare", "--shape1", "ellipse:2:1",
                   "--shape2", "circle:3", "--n", "64", "--stop-amax", "30"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "PASS"
    # the semi-major axis 2 sits 1 inside the circle (polygon chords: 1.2e-3)
    assert abs(out["initialDistance"] - 1.0) < 5e-3


def test_cli_firstvar_bump_needs_three_numbers(tmp_path, capsys):
    path = tmp_path / "g.csv"
    tio.write_grid_csv(wavy_grid(), path)
    rc = cli.main(["analyze", "firstvar", "--in", str(path), "--bump", "1,2"])
    assert rc == 2
    assert "bad --bump '1,2'" in capsys.readouterr().err


def test_cli_export_refuses_a_foreign_csv(tmp_path, capsys):
    path = tmp_path / "x.csv"
    path.write_text("a,b\n1,2\n")
    rc = cli.main(["export", "obj", "--in", str(path), "--out",
                   str(tmp_path / "x.obj")])
    assert rc == 2
    assert "unrecognized CSV header" in capsys.readouterr().err
    assert not (tmp_path / "x.obj").exists()


@pytest.mark.parametrize("kind, option, value", [
    (kind, option, value)
    for kind in ("bowl", "catenoid-upper", "catenoid-lower")
    for option, value in (("--h", "-0.01"), ("--h", "0"), ("--h", "nan"),
                          ("--lam", "nan"), ("--lam", "-1"),
                          ("--rmax", "inf"), ("--rmax", "nan"))
    if (kind, option) != ("bowl", "--lam")])      # the bowl has no neck
def test_cli_radial_shoot_refuses_unbounded_inputs(tmp_path, capsys, kind,
                                                   option, value):
    # these used to run into a timeout, or write a wing that is not one
    out = tmp_path / "p.csv"
    rc = cli.main(["radial", "shoot", "--kind", kind, option, value,
                   "--out", str(out)])
    assert rc == 1
    assert "must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_cli_radial_shoot_prints_the_integrator_counters(tmp_path, capsys):
    out = tmp_path / "c.csv"
    rc = cli.main(["radial", "shoot", "--kind", "catenoid-lower", "--lam", "1",
                   "--rmax", "3", "--h", "0.01", "--out", str(out)])
    assert rc == 0
    p = radial.shoot_catenoid_wing(2, 1.0, 3.0, 0.01,
                                   radial.RadialKind.CATENOID_LOWER)
    assert capsys.readouterr().out == (
        f"wrote {out} ({len(p.r)} samples, {p.neckSamples} in arclength; "
        f"{p.steps} steps, {p.rejected} rejected, "
        f"min step {p.minStep:.3g})\n")


@pytest.mark.parametrize("kind", ["grim", "tilted", "plane"])
@pytest.mark.parametrize("h", ["-5", "0", "nan", "inf"])
def test_cli_catalog_refuses_a_step_that_is_not_positive(capsys, kind, h):
    # -5 used to give a 5x5 grid, nan "cannot convert float NaN to integer"
    with pytest.raises(SystemExit) as info:
        cli.main(["catalog", "residual", "--kind", kind, "--h", h])
    assert info.value.code == 2
    assert "argument --h: must be a finite positive number" in \
        capsys.readouterr().err


def test_cli_catalog_config_step_goes_through_the_same_check(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"h": -5}))
    rc = cli.main(["catalog", "residual", "--config", str(cfg)])
    assert rc == 2
    assert "config key 'h': must be a finite positive number" in \
        capsys.readouterr().err


@pytest.mark.parametrize("argv, code, err", [
    (["--bump", "0,0,nan"], 2, "bad --bump '0,0,nan': bump radius"),
    (["--bump", "nan,0,1"], 2, "bad --bump 'nan,0,1': bump center"),
    (["--bump", "0,0,-1"], 2, "bad --bump '0,0,-1': bump radius"),
    (["--eps", "nan"], 2, "argument --eps: must be a finite positive number"),
    (["--eps=-1e-4"], 2, "argument --eps: must be a finite positive"),
])
def test_cli_firstvar_names_the_bad_option(tmp_path, capsys, argv, code, err):
    # NaN used to pass the <= 0 checks and fail later on non-finite grid values
    path = tmp_path / "g.csv"
    tio.write_grid_csv(wavy_grid(), path)
    try:
        rc = cli.main(["analyze", "firstvar", "--in", str(path), *argv])
    except SystemExit as exc:       # argparse refuses the option itself
        rc = exc.code
    assert rc == code
    assert err in capsys.readouterr().err


@pytest.mark.parametrize("argv, err", [
    (["delta-wing", "--b", "inf"],
     "strip half-width b must be finite and positive, got inf"),
    (["delta-wing", "--b", "nan"],
     "strip half-width b must be finite and positive, got nan"),
    (["delta-wing", "--b", "2", "--L", "nan"],
     "truncation length L must be finite and >= 4, got nan"),
    (["delta-wing", "--b", "2", "--L", "inf"],
     "truncation length L must be finite and >= 4, got inf"),
    (["continuation", "--b-start", "2", "--b-end", "inf", "--steps", "2"],
     "continuation b_end must be finite, got inf"),
    (["continuation", "--b-start", "nan", "--b-end", "2", "--steps", "2"],
     "continuation b_start must be finite, got nan"),
    (["delta-wing", "--b", "1e200"],
     "strip half-width b must keep hy^2 and sec^6(theta) finite and "
     "positive, got 1e+200"),
    (["delta-wing", "--b", "1e150"],
     "strip half-width b must keep hy^2 and sec^6(theta) finite and "
     "positive, got 1e+150"),
    (["delta-wing", "--b", "2", "--L", "1e300"],
     "truncation length L must keep hx^2 finite, got 1e+300"),
    (["continuation", "--b-start", "2", "--b-end", "1e300", "--steps", "2"],
     "strip half-width b must keep hy^2 and sec^6(theta) finite and "
     "positive, got 1e+300"),
], ids=["b-inf", "b-nan", "L-nan", "L-inf", "b-end-inf", "b-start-nan",
        "b-1e200", "b-1e150", "L-1e300", "b-end-1e300"])
def test_cli_strip_refuses_a_width_or_length_that_is_not_finite(argv, err):
    # b = inf used to end in a ZeroDivisionError traceback, nan in "grid
    # spacings must be positive", and L = inf or b_end = inf printed numpy's
    # RuntimeWarning ahead of the error line.  Finite sizes whose squares
    # overflow did the same: b = 1e200 and b_end = 1e300 ended in the
    # traceback, L = 1e300 and b = 1e150 printed the warning and then
    # "Factor is exactly singular"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "translab.cli", "elliptic",
                           *argv, "--nx", "33", "--ny", "33"], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {err}\n"


@pytest.mark.parametrize("rlo, rhi, err", [
    ("0", "20", "fit bound r_lo must be finite and positive, got 0.0"),
    ("-5", "20", "fit bound r_lo must be finite and positive, got -5.0"),
    ("nan", "20", "fit bound r_lo must be finite and positive, got nan"),
    ("2", "nan", "fit bound r_hi must be finite, got nan"),
    ("2", "inf", "fit bound r_hi must be finite, got inf"),
])
def test_cli_radial_fit_refuses_a_bound_that_is_not_finite_positive(
        tmp_path, rlo, rhi, err):
    # r_lo <= 0 used to print numpy's warnings, LAPACK's DLASCL complaint and
    # "SVD did not converge"; nan reported too few samples in the window
    prof = tmp_path / "p.csv"
    tio.write_profile_csv(radial.shoot_bowl(2, 20.0, 1e-2), prof)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "translab.cli", "radial",
                           "fit", "--in", str(prof), "--rlo", rlo, "--rhi", rhi],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {err}\n"
