import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
import threading
import warnings
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
    # copies, not views that keep the parse of all six columns alive
    for a in (p2.r, p2.u, p2.psi):
        assert a.flags.c_contiguous and a.base is None


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


def test_report_json_leaves_out_the_repr_false_fields():
    p = radial.shoot_bowl(2, 1.0, 0.05)     # 21 samples
    assert len(p.r) < 64
    rep = json.loads(tio.report_to_json(p, {"command": "x"}))
    assert set(rep) == {"n", "kind", "lam", "h", "steps", "rejected",
                        "minStep", "neckSamples", "command", "version"}
    assert rep["kind"] == "bowl"            # an Enum is written as its value


def test_report_json_writes_a_list_of_results_field_by_field():
    a, b = radial.shoot_bowl(2, 1.0, 0.05), radial.shoot_bowl(3, 1.0, 0.05)
    rep = json.loads(tio.report_to_json([a, b]))
    assert rep["n"] == [2, 3] and rep["kind"] == ["bowl", "bowl"]
    assert rep["steps"] == [a.steps, b.steps] and "r" not in rep
    with pytest.raises(TranslabError, match="cannot serialize list"):
        tio.report_to_json([a, radial.fit_asymptotics(
            radial.shoot_bowl(2, 30.0, 1e-2), 10.0, 30.0)])


# --- CSV memo -------------------------------------------------------------------


def signed_zero_grid():
    values = np.arange(20.0).reshape(5, 4) / 3
    values[0, 0] = values[2, 3] = -0.0
    return grid.GridFunction(5, 4, 0.5, 0.25, -0.0, -1.0, values)


MEMO_CASES = {
    "grid": (signed_zero_grid, tio.write_grid_csv, tio.read_grid_csv),
    "bowl": (lambda: radial.shoot_bowl(2, 3.0, 1e-2), tio.write_profile_csv,
             tio.read_profile_csv),
    "catenoid": (lambda: radial.shoot_catenoid_wing(
        2, 1.0, 3.0, 1e-2, radial.RadialKind.CATENOID_UPPER),
        tio.write_profile_csv, tio.read_profile_csv),
}


def bits(obj):
    """(name, type, value) of each field of a GridFunction or RadialProfile,
    a float or array value as its bytes."""
    out = []
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        if isinstance(v, np.ndarray):
            out.append((f.name, type(v), v.dtype, v.shape, v.tobytes()))
        elif isinstance(v, float):
            out.append((f.name, type(v), np.float64(v).tobytes()))
        else:
            out.append((f.name, type(v), v))
    return out


def no_parse(*args):
    raise AssertionError("parsed a file the memo holds")


@pytest.mark.parametrize("case", MEMO_CASES)
def test_memo_hit_reads_what_a_parse_reads(tmp_path, monkeypatch, case):
    make, write, read = MEMO_CASES[case]
    path = tmp_path / "f.csv"
    write(make(), path)
    with monkeypatch.context() as m:
        m.setattr(tio, "_read_csv", no_parse)
        hit = read(path)
    tio._memo.clear()
    parsed = read(path)
    assert bits(hit) == bits(parsed)
    if case == "grid":
        assert np.signbit(hit.values[[0, 2], [0, 3]]).all() and np.signbit(hit.x0)
    else:
        assert (hit.lam is None) == (case == "bowl")
        assert (hit.steps, hit.rejected, hit.neckSamples) == (0, 0, 0)


@pytest.mark.parametrize("case", MEMO_CASES)
def test_memo_returns_copies(tmp_path, case):
    make, write, read = MEMO_CASES[case]
    path = tmp_path / "f.csv"
    obj = make()
    write(obj, path)
    expected = bits(read(path))
    names = ["values"] if case == "grid" else ["r", "u", "psi"]
    for source in (obj, read(path)):  # the written object, then a read
        for name in names:
            getattr(source, name)[...] = 7.0
        assert bits(read(path)) == expected


def test_memo_parses_a_file_rewritten_in_place(tmp_path):
    path = tmp_path / "g.csv"
    tio.write_grid_csv(wavy_grid(), path)
    tio.read_grid_csv(path)
    data = bytearray(path.read_bytes())
    k = len(data) - 2                       # the last digit of the last u
    data[k] = ord("1") if data[k] != ord("1") else ord("2")
    with open(path, "r+b") as f:            # same length, same inode
        f.write(data)
    last = data.decode().splitlines()[-1].split(",")[-1]
    assert tio.read_grid_csv(path).values[-1, -1] == float(last)


@pytest.mark.parametrize("kind, row, text, err", [
    ("grid", 3, "1,2,0.5,0.5,abc", "malformed grid CSV"),
    ("grid", -1, None, "node indices must cover each of the 9x7"),
    ("profile", 5, "1,2,3,4,5", "malformed profile CSV"),
    ("profile", -1, None, "300 rows, header records 301"),
], ids=["grid-row", "grid-truncated", "profile-row", "profile-truncated"])
def test_memo_refuses_a_malformed_file_at_a_held_path(tmp_path, kind, row,
                                                      text, err):
    # the valid file is held, then rewritten with one line replaced or cut
    path = tmp_path / "f.csv"
    if kind == "grid":
        tio.write_grid_csv(wavy_grid(), path)
        read = tio.read_grid_csv
    else:
        tio.write_profile_csv(radial.shoot_bowl(2, 3.0, 1e-2), path)
        read = tio.read_profile_csv
    read(path)
    lines = path.read_text().splitlines()
    if text is None:
        del lines[row]
    else:
        lines[row] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TranslabError, match=err):
        read(path)
    assert tio._memo[kind][0] != tio._digest(path)


def test_memo_holds_one_entry_per_kind(tmp_path):
    # the last file written of each kind; a read replaces nothing
    paths = [tmp_path / f"{name}.csv" for name in ("g1", "g2", "p1", "p2")]
    tio.write_grid_csv(wavy_grid(), paths[0])
    tio.write_grid_csv(wavy_grid(7, 5), paths[1])
    tio.write_profile_csv(radial.shoot_bowl(2, 1.0, 1e-2), paths[2])
    tio.write_profile_csv(radial.shoot_bowl(3, 1.0, 1e-2), paths[3])
    tio.read_grid_csv(paths[0])
    tio.read_profile_csv(paths[2])
    assert sorted(tio._memo) == ["grid", "profile"]
    assert tio._memo["grid"][:2] == (tio._digest(paths[1]),
                                     paths[1].stat().st_size)
    assert tio._memo["profile"][:2] == (tio._digest(paths[3]),
                                        paths[3].stat().st_size)


def no_hash(path):
    raise AssertionError(f"hashed {path}")


def test_memo_hashes_only_a_file_the_size_of_its_entry(tmp_path, monkeypatch):
    # a read with no entry of its kind, or of another size, parses unhashed:
    # what every separate CLI process does
    g, p = tmp_path / "g.csv", tmp_path / "p.csv"
    tio.write_grid_csv(wavy_grid(), g)
    tio.write_profile_csv(radial.shoot_bowl(2, 1.0, 1e-2), p)
    tio._memo.clear()
    monkeypatch.setattr(tio, "_digest", no_hash)
    expected = tio.read_grid_csv(g).values
    tio.read_profile_csv(p)
    tio.write_profile_csv(radial.shoot_bowl(2, 1.0, 1e-2), tmp_path / "q.csv")
    assert np.array_equal(tio.read_grid_csv(g).values, expected)
    tio.write_grid_csv(wavy_grid(7, 5), tmp_path / "h.csv")
    assert np.array_equal(tio.read_grid_csv(g).values, expected)
    assert tio._memo["grid"][1] != g.stat().st_size


def test_memo_read_racing_a_rewrite_holds_nothing(tmp_path, monkeypatch):
    # the file at path changes from b's bytes to a's, the held ones, between
    # the reader's hash and its parse; b is a with one digit changed, so of
    # the held size; a later read of b's bytes must still give b
    a, path, held = wavy_grid(), tmp_path / "f.csv", tmp_path / "a.csv"
    tio.write_grid_csv(a, held)
    entry = tio._memo["grid"]
    b_bytes = bytearray(held.read_bytes())
    k = len(b_bytes) - 2                    # the last digit of the last u
    b_bytes[k] = ord("1") if b_bytes[k] != ord("1") else ord("2")
    b_last = float(b_bytes.decode().splitlines()[-1].split(",")[-1])
    path.write_bytes(b_bytes)
    digest = tio._digest

    def digest_then_rewrite(p):
        out = digest(p)
        path.write_bytes(held.read_bytes())
        return out

    monkeypatch.setattr(tio, "_digest", digest_then_rewrite)
    assert np.array_equal(tio.read_grid_csv(path).values, a.values)
    monkeypatch.setattr(tio, "_digest", digest)
    assert tio._memo["grid"] is entry
    path.write_bytes(b_bytes)
    assert tio.read_grid_csv(path).values[-1, -1] == b_last != a.values[-1, -1]


def nan_sample_bowl():
    p = radial.shoot_bowl(2, 1.0, 1e-2)
    p.u[3] = -np.nan
    return p


@pytest.mark.parametrize("make, err", [
    (nan_sample_bowl, None),
    (lambda: radial.shoot_bowl(2.0, 1.0, 1e-2),
     "invalid literal for int() with base 10: '2.0'"),
], ids=["nan-sample", "float-n"])
def test_memo_does_not_hold_a_profile_that_does_not_read_back(tmp_path, make,
                                                             err):
    # "nan" reads back as the positive quiet NaN, whatever the sign and
    # payload written; a header n=2.0 is refused by the reader
    path = tmp_path / "p.csv"
    tio.write_profile_csv(make(), path)
    assert tio._memo == {}
    if err is None:
        assert not np.signbit(tio.read_profile_csv(path).u[3])
    else:
        with pytest.raises(TranslabError, match=re.escape(err)):
            tio.read_profile_csv(path)


def test_memo_under_threads(tmp_path):
    # threads writing and reading their own grids through the one memo each
    # read back their own values
    grids = [grid.from_function(lambda X, Y, k=k: X * Y + k, -1, 1, -1, 1, 9, 7)
             for k in range(4)]
    failures = []

    def work(k):
        path = tmp_path / f"g{k}.csv"
        for _ in range(25):
            tio.write_grid_csv(grids[k], path)
            for _ in range(2):
                if not np.array_equal(tio.read_grid_csv(path).values,
                                      grids[k].values):
                    failures.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,), daemon=True)
                   for k in range(len(grids))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


def test_csv_reads_from_a_pipe(tmp_path, monkeypatch):
    # a pipe can be read once: it is parsed without a hash, though the memo
    # holds the content it carries
    g, src, fifo = wavy_grid(), tmp_path / "g.csv", tmp_path / "fifo"
    tio.write_grid_csv(g, src)
    entry = tio._memo["grid"]
    monkeypatch.setattr(tio, "_digest", no_hash)
    os.mkfifo(fifo)
    feed = threading.Thread(target=lambda: fifo.write_bytes(src.read_bytes()),
                            daemon=True)
    feed.start()
    assert np.array_equal(tio.read_grid_csv(fifo).values, g.values)
    feed.join(timeout=10)
    assert tio._memo == {"grid": entry}


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

    # the three analyses read the grid the solve wrote, held in the memo,
    # without a parse; run again on an empty memo, each parses it and must
    # print the same bytes
    commands = [["jacobi"], ["sx"], ["firstvar", "--bump", "0,0,1.0"]]
    held = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(tio, "_read_csv", no_parse)
        for argv in commands:
            assert cli.main(["analyze", *argv, "--in", str(wing)]) == 0
            held.append(capsys.readouterr().out)
    for argv, out in zip(commands, held):
        tio._memo.clear()
        assert cli.main(["analyze", *argv, "--in", str(wing)]) == 0
        assert capsys.readouterr().out == out
    jacobi, sx, firstvar = map(json.loads, held)
    assert jacobi["maxJacobiDefect"] < 1.0
    assert sx["fracInequalityHolds"] >= 0.9
    assert abs(firstvar["firstVariation"]) < 1.0

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
    assert cont["schema"] == "translab-continuation/2"
    for f in dataclasses.fields(elliptic.SolveReport):
        assert len(cont[f.name]) == 2, f.name


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
    assert out["schema"] == "translab-comparison/2"
    assert 0 < out["leastDistance"] <= out["initialDistance"]
    assert not {"times", "minDistance"} & out.keys()

def test_cli_csf_run_report_holds_the_log_counters_not_its_series(tmp_path,
                                                                   capsys):
    # 56 samples: the parent wrote the time series of a log under 65 samples
    rc = cli.main(["csf", "run", "--n", "16", "--stop-amax", "3",
                   "--out", str(tmp_path / "log.csv")])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    log = csf.run(csf.make_circle(1.0, 16), 3.0)
    assert len(log.times) < 64
    assert not {"times", "Amax", "length", "area", "samples"} & rep.keys()
    assert rep["schema"] == "translab-verdict/2"
    assert (rep["steps"], rep["remeshes"], rep["fitWindowStart"],
            rep["areaLawDefect"]) == (log.steps, log.remeshes,
                                      log.fitWindowStart, log.areaLawDefect)


@pytest.mark.parametrize("argv", [["--h", "1"], ["--kind", "plane"]],
                         ids=["h-1", "plane"])
def test_cli_catalog_report_holds_no_per_node_array(capsys, argv):
    # --h 1 used to write the 5x5 perNode as "nan" strings, plane "[]"
    assert cli.main(["catalog", "residual", *argv]) == 0
    assert "perNode" not in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("small, large", [
    (["catalog", "residual", "--h", "1"], ["catalog", "residual", "--h", "0.1"]),
    (["csf", "run", "--n", "16", "--stop-amax", "3", "--out", "{tmp}/l.csv"],
     ["csf", "run", "--n", "64", "--stop-amax", "30", "--out", "{tmp}/l.csv"]),
    (["csf", "compare", "--n", "16", "--stop-amax", "3"],
     ["csf", "compare", "--n", "32", "--stop-amax", "30"]),
    (["radial", "shoot", "--rmax", "1", "--h", "0.05", "--out", "{tmp}/p.csv"],
     ["radial", "shoot", "--rmax", "5", "--h", "0.01", "--out", "{tmp}/p.csv"]),
], ids=["catalog", "csf-run", "csf-compare", "radial-shoot"])
def test_cli_report_keys_do_not_depend_on_size(tmp_path, capsys, small, large):
    keys = []
    for argv in (small, large):
        assert cli.main([a.format(tmp=tmp_path) for a in argv]) == 0
        keys.append(set(json.loads(capsys.readouterr().out)))
    assert keys[0] == keys[1]


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


def test_cli_abbreviated_flag_is_a_usage_error(tmp_path):
    # --stop would abbreviate --stop-amax; options are spelled in full
    with pytest.raises(SystemExit) as info:
        cli.main(["csf", "run", "--n", "64", "--stop", "50",
                  "--out", str(tmp_path / "log.csv")])
    assert info.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["catalog", "residual"],
    ["radial", "shoot", "--out", "{tmp}/p.csv"],
    ["radial", "fit", "--in", "{tmp}/p.csv", "--rlo", "1", "--rhi", "2"],
    ["elliptic", "delta-wing", "--b", "2"],
    ["elliptic", "continuation", "--b-start", "2", "--b-end", "3"],
    ["csf", "run", "--out", "{tmp}/l.csv"],
    ["csf", "compare"],
    ["analyze", "sx", "--in", "{tmp}/g.csv"],
    ["analyze", "jacobi", "--in", "{tmp}/g.csv"],
    ["analyze", "firstvar", "--in", "{tmp}/g.csv"],
    ["export", "obj", "--in", "{tmp}/g.csv", "--out", "{tmp}/g.obj"],
], ids=lambda argv: "-".join(argv[:2]))
def test_cli_config_is_an_unknown_option(tmp_path, capsys, argv):
    # the command line is the whole input of a run: --config FILE is
    # refused like any other unknown option, before anything runs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 32}))
    with pytest.raises(SystemExit) as info:
        cli.main([a.format(tmp=tmp_path) for a in argv]
                 + ["--config", str(cfg)])
    assert info.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("argv, source", [
    (["catalog", "residual", "--kind", "plane", "--out", "{d}/r.json"],
     "r.json"),
    (["radial", "shoot", "--rmax", "1", "--h", "0.01", "--out", "{d}/p.csv"],
     None),
    (["elliptic", "delta-wing", "--b", "2.2", "--nx", "33", "--ny", "33",
      "--obj", "{d}/w.obj"], "w.obj"),
], ids=["report-file", "stdout", "obj"])
def test_cli_command_is_shell_quoted(tmp_path, capsys, argv, source):
    # " ".join(argv) recorded "--out <tmp>/a b/r.json", which a shell
    # splits into two words; the recorded command gives argv back
    d = tmp_path / "a b"
    d.mkdir()
    argv = [a.format(d=d) for a in argv]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if source is None:
        command = json.loads(out)["command"]
    elif source.endswith(".obj"):
        command = next(ln for ln in (d / source).read_text().splitlines()
                       if ln.startswith("# command: "))[len("# command: "):]
    else:
        command = json.loads((d / source).read_text())["command"]
    assert shlex.split(command) == ["translab", *argv]


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
NODES_X0_NAN = r"grid nodes must be finite, got x0 = nan, hx = 1\.0, y0 = 0\.0"
NODES_HX_INF = r"grid nodes must be finite, got x0 = 0\.0, hx = inf, y0 = 0\.0"
NODES_HX_1E308 = r"grid nodes must be finite, got x0 = 0\.0, hx = 1e\+308, "


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
    (["analyze", "sx", "--in", "{tmp}/x0-nan.csv"], NODES_X0_NAN),
    (["export", "obj", "--in", "{tmp}/x0-nan.csv", "--out", "{tmp}/g.obj"],
     NODES_X0_NAN),
    (["analyze", "sx", "--in", "{tmp}/hx-inf.csv"], NODES_HX_INF),
    (["export", "obj", "--in", "{tmp}/hx-inf.csv", "--out", "{tmp}/g.obj"],
     NODES_HX_INF),
    (["analyze", "sx", "--in", "{tmp}/hx-1e308.csv"], NODES_HX_1E308),
    (["export", "obj", "--in", "{tmp}/hx-1e308.csv", "--out", "{tmp}/g.obj"],
     NODES_HX_1E308),
], ids=["circle-1e200", "ellipse-1e308", "circle-5e154", "circle-1e150",
        "circle-1e-100", "stop-amax-1e300", "run-n-1e8", "compare-n-1e5",
        "catalog-h", "sx-grid-1e16", "obj-grid-1e16", "strip-nx-1e8",
        "cont-steps-1e8", "obj-samples-1e8", "sx-x0-nan", "obj-x0-nan",
        "sx-hx-inf", "obj-hx-inf", "sx-hx-1e308", "obj-hx-1e308"])
def test_cli_refuses_a_scale_it_cannot_compute(tmp_path, capsys, argv, err):
    # each used to end otherwise: Amax^2 underflowing to 0 in a
    # ZeroDivisionError (1e200, 1e308), t overflowing to inf in exit 0 with
    # no stopReason (5e154), numpy RuntimeWarnings before the error line
    # (1e150) or after a flow whose times squared underflow in the fit
    # (1e-100), amax ** 2 in an OverflowError (stopAmax 1e300), h = 1e-7,
    # both n, the grid header's 10^16 nodes, the 3.3e9 strip nodes and the
    # 10^8 angular samples in a failed allocation, 10^8 continuation
    # steps in a run of more than a minute, and grid nodes that are not
    # finite in nan or inf OBJ vertices with exit 0
    (tmp_path / "huge.csv").write_text(
        "# translab-grid nx=100000000 ny=100000000 hx=1 hy=1 x0=0 y0=0\n"
        "i,j,x,y,u\n0,0,0,0,0\n")
    for key, value in (("x0", "nan"), ("hx", "inf"), ("hx", "1e308")):
        meta = {"nx": 5, "ny": 5, "hx": 1, "hy": 1, "x0": 0, "y0": 0,
                key: value}
        (tmp_path / f"{key}-{value}.csv").write_text(
            "# translab-grid " + " ".join(f"{k}={v}" for k, v in meta.items())
            + "\ni,j,x,y,u\n"
            + "".join(f"{i},{j},0,0,0\n" for i in range(5) for j in range(5)))
    tio.write_profile_csv(radial.shoot_bowl(2, 1.0, 1e-2), tmp_path / "p.csv")
    rc = cli.main([a.format(tmp=tmp_path) for a in argv])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(lines) == 1 and re.fullmatch(rf"error: {err}.*", lines[0])


@pytest.mark.parametrize("argv", [
    ["radial", "fit", "--in", "{tmp}/missing.csv", "--rlo", "1", "--rhi", "2"],
    ["export", "obj", "--in", "{tmp}/missing.csv", "--out", "{tmp}/m.obj"],
    ["radial", "shoot", "--rmax", "1", "--h", "0.01",
     "--out", "{tmp}/nonexistent/dir/b.csv"],
], ids=["fit-in", "export-in", "shoot-out"])
def test_cli_unopenable_path_is_an_error_line(tmp_path, capsys, argv):
    rc = cli.main([a.format(tmp=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["analyze", "sx", "--in", "{path}"],
    ["export", "obj", "--in", "{path}", "--out", "{tmp}/e.obj"],
    ["radial", "fit", "--in", "{path}", "--rlo", "1", "--rhi", "2"],
], ids=["analyze-sx", "export-obj", "radial-fit"])
@pytest.mark.parametrize("columns", [True, False], ids=["columns", "no-columns"])
def test_cli_csv_without_data_rows_is_one_error_line(tmp_path, capsys, argv,
                                                     columns):
    # np.loadtxt used to warn "input contained no data" on stderr before
    # the error line "expected rows of 5 fields" (6 for a profile)
    tag = "profile" if "fit" in argv else "grid"
    head = {"grid": "# translab-grid nx=5 ny=5 hx=1 hy=1 x0=0 y0=0\ni,j,x,y,u\n",
            "profile": "# translab-profile n=2 kind=bowl lam= h=0.1 rows=3\n"
                       "r,u,psi,kappa1,kappa2,H\n"}[tag]
    path = tmp_path / "h.csv"
    path.write_text(head if columns else head.splitlines(keepends=True)[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([a.format(path=path, tmp=tmp_path) for a in argv])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {path}: {tag} CSV has no data rows\n"


@pytest.mark.parametrize("argv", [
    ["analyze", "sx", "--in", "{path}"],
    ["export", "obj", "--in", "{path}", "--out", "{tmp}/e.obj"],
], ids=["analyze-sx", "export-obj"])
def test_cli_undecodable_csv_names_its_file(tmp_path, capsys, argv):
    # export obj sniffs the first line itself, analyze reads it in io
    path = tmp_path / "u.csv"
    path.write_bytes(b"\xff\xfe# translab-grid nx=5\n")
    rc = cli.main([a.format(path=path, tmp=tmp_path) for a in argv])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")
    assert "can't decode byte 0xff" in lines[0]


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


@pytest.mark.parametrize("kind", ["catenoid-upper", "catenoid-lower"],
                         ids=["0-catenoid-upper", "1-catenoid-lower"])
def test_cli_shoots_one_catenoid_wing(tmp_path, capsys, kind):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    rc = cli.main(["radial", "shoot", "--kind", kind, "--lam", "1",
                   "--rmax", "2", "--h", "0.01", "--out", str(got)])
    assert rc == 0
    tio.write_profile_csv(radial.shoot_catenoid_wing(
        2, 1.0, 2.0, 0.01, radial.RadialKind(kind)), want)
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
    rep = json.loads(capsys.readouterr().out)
    assert (rep["steps"], rep["rejected"], rep["minStep"], rep["neckSamples"]) \
        == (p.steps, p.rejected, p.minStep, p.neckSamples)
    assert p.neckSamples > 0 and rep["kind"] == "catenoid-lower"
    assert not {"r", "u", "psi"} & rep.keys()   # the samples are in the CSV


@pytest.mark.parametrize("kind", ["grim", "tilted", "plane"])
@pytest.mark.parametrize("h", ["-5", "0", "nan", "inf"])
def test_cli_catalog_refuses_a_step_that_is_not_positive(capsys, kind, h):
    # -5 used to give a 5x5 grid, nan "cannot convert float NaN to integer"
    with pytest.raises(SystemExit) as info:
        cli.main(["catalog", "residual", "--kind", kind, "--h", h])
    assert info.value.code == 2
    assert "argument --h: must be a finite positive number" in \
        capsys.readouterr().err


@pytest.mark.parametrize("argv, code, err", [
    (["--bump", "0,0,nan"], 2, "bad --bump '0,0,nan': bump radius"),
    (["--bump", "nan,0,1"], 2, "bad --bump 'nan,0,1': bump center"),
    (["--bump", "0,0,-1"], 2, "bad --bump '0,0,-1': bump radius"),
    (["--bump", "100,0,1.5"], 1, "error: bump support holds no grid node"),
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


@pytest.mark.parametrize("argv, key, value", [
    (["csf", "run", "--n", "32", "--out", "{tmp}/l.csv"], "dt_safety", 2e-2),
    (["analyze", "firstvar", "--in", "{tmp}/g.csv"], "eps", 1e-4),
], ids=["dt-safety", "eps"])
def test_cli_step_constants_take_no_option(tmp_path, capsys, argv, key,
                                           value):
    # the flow step and the first-variation epsilon are the constants
    # csf.DT_SAFETY and analysis.EPSILON: their old flags are unknown, at
    # their old default values too
    tio.write_grid_csv(grid.from_function(
        lambda X, Y: np.sin(X) * np.cos(Y) / 3, -2, 2, -2, 2, 33, 33),
        tmp_path / "g.csv")
    argv = [a.format(tmp=tmp_path) for a in argv]
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as info:
        cli.main(argv + [flag, repr(value)])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def tiny_wavy_grid(h, amplitude):
    """41x41 nodes at spacing h of amplitude sin(0.7 i) cos(0.5 j)."""
    i, j = np.meshgrid(np.arange(41), np.arange(41), indexing="ij")
    return grid.GridFunction(41, 41, h, h, -20 * h, -20 * h,
                             amplitude * np.sin(0.7 * i) * np.cos(0.5 * j))


OVERFLOWED = "difference quotients overflowed"
STEEP = grid.from_function(lambda X, Y: 1e300 * X, -2, 2, -2, 2, 41, 41)
TINY_A, TINY_B = tiny_wavy_grid(1e-155, 0.05), tiny_wavy_grid(1e-160, 0.3)
# kappa1 overflows at h = 1e-150, the principal-direction norm at 1e-100
TINY_C, TINY_D = tiny_wavy_grid(1e-150, 0.05), tiny_wavy_grid(1e-100, 0.05)


@pytest.mark.parametrize("sub, u, bump, err", [
    ("sx", STEEP, [], OVERFLOWED),
    ("jacobi", STEEP, [], OVERFLOWED),
    ("firstvar", STEEP, [], OVERFLOWED),
    ("sx", TINY_A, [], OVERFLOWED),
    ("jacobi", TINY_A, [], OVERFLOWED),
    ("firstvar", TINY_A, ["--bump", "0,0,8e-155"], "weighted area overflowed"),
    ("sx", TINY_B, [], OVERFLOWED),
    ("jacobi", TINY_B, [], OVERFLOWED),
    ("firstvar", TINY_B, ["--bump", "0,0,8e-160"], OVERFLOWED),
    ("sx", TINY_C, [], OVERFLOWED),
    ("jacobi", TINY_C, [], OVERFLOWED),
    ("sx", TINY_D, [], OVERFLOWED),
    ("jacobi", TINY_D, [], OVERFLOWED),
], ids=["sx", "jacobi", "firstvar", "sx-h1e-155", "jacobi-h1e-155",
        "firstvar-h1e-155", "sx-h1e-160", "jacobi-h1e-160",
        "firstvar-h1e-160", "sx-h1e-150", "jacobi-h1e-150", "sx-h1e-100",
        "jacobi-h1e-100"])
def test_cli_overflowing_slopes_are_one_error_line(tmp_path, capsys, sub, u,
                                                   bump, err):
    # u = 1e300 x: p * p overflows.  sx and jacobi used to print numpy's
    # overflow RuntimeWarning and its source line before the error line,
    # firstvar two warnings and then "grid values must be finite".  At
    # h = 1e-155 the slopes are finite and u_xx overflows, at h = 1e-160
    # both do; no numpy warning may reach stderr.  At h = 1e-150 kappa1
    # overflows and at h = 1e-100 the principal-direction norm: sx and jacobi
    # printed 1 to 12 warnings there, and jacobi at 1e-100 exited 0 with a
    # defect of 1.1e106 read off an overflowed direction field
    path = tmp_path / "g.csv"
    tio.write_grid_csv(u, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["analyze", sub, "--in", str(path), *bump])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize("sub", ["sx", "jacobi"])
def test_cli_tiny_grid_within_range_runs_without_warning(tmp_path, capsys,
                                                         sub):
    # at h = 1e-60 nothing overflows; sx divided by kappa1 = 0 and printed
    # seven numpy warnings ahead of its report
    path = tmp_path / "g.csv"
    tio.write_grid_csv(tiny_wavy_grid(1e-60, 0.05), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["analyze", sub, "--in", str(path)])
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    assert isinstance(json.loads(out), dict)


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
