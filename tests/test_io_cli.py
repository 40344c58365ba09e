import dataclasses
import json
import math
import os
import re
import shlex
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

import cli_contract
from translab import cli, csf, elliptic, grid, io as tio, radial
from translab.errors import TranslabError


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


def test_revolution_obj_export_refuses_a_profile_changed_to_nan(tmp_path):
    p = radial.shoot_bowl(2, 1.0, 1e-2)
    p.u[3] = np.nan     # in place, after RadialProfile checked its samples
    with pytest.raises(TranslabError, match="refusing OBJ export: non-finite profile"):
        tio.export_revolution_obj(p, tmp_path / "bad.obj")
    assert not (tmp_path / "bad.obj").exists()


def test_revolution_obj_counts(tmp_path):
    p = radial.shoot_bowl(2, 1.0, 1e-2)
    path = tmp_path / "rev.obj"
    tio.export_revolution_obj(p, path)
    lines = path.read_text().splitlines()
    nv = sum(1 for ln in lines if ln.startswith("v "))
    nf = sum(1 for ln in lines if ln.startswith("f "))
    assert nv == len(p.r) * 128
    assert nf == (len(p.r) - 1) * 128


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


def held(path):
    """The memo's entry for path: (kind, digest, size, metadata, arrays)."""
    return tio._memo[os.path.abspath(path)]


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
    assert held(path)[1] != tio._digest(path)


def test_memo_holds_one_entry_per_path(tmp_path):
    # the last file written at each path; a read replaces nothing
    paths = [tmp_path / f"{name}.csv" for name in ("g1", "g2", "p1", "p2")]
    tio.write_grid_csv(wavy_grid(), paths[0])
    tio.write_grid_csv(wavy_grid(7, 5), paths[1])
    tio.write_profile_csv(radial.shoot_bowl(2, 1.0, 1e-2), paths[2])
    tio.write_profile_csv(radial.shoot_bowl(3, 1.0, 1e-2), paths[3])
    tio.write_grid_csv(wavy_grid(5, 5), paths[0])
    tio.write_profile_csv(radial.shoot_bowl(2, 2.0, 1e-2), paths[2])
    for read, path in zip([tio.read_grid_csv] * 2 + [tio.read_profile_csv] * 2,
                          paths):
        read(path)
    assert sorted(tio._memo) == sorted(str(path) for path in paths)
    for kind, path in zip(["grid"] * 2 + ["profile"] * 2, paths):
        assert held(path)[:3] == (kind, tio._digest(path), path.stat().st_size)
    assert held(paths[0])[3]["nx"] == 5


def test_memo_holds_a_profile_written_before_another(tmp_path, monkeypatch):
    # family's order: bowl.csv, then catenoid.csv, then bowl.csv read again;
    # a relative path and its absolute form are one entry
    monkeypatch.chdir(tmp_path)
    bowl = radial.shoot_bowl(2, 3.0, 1e-2)
    tio.write_profile_csv(bowl, "bowl.csv")
    tio.write_profile_csv(radial.shoot_catenoid_wing(
        2, 1.0, 3.0, 1e-2, radial.RadialKind.CATENOID_UPPER), "catenoid.csv")
    monkeypatch.setattr(tio, "_read_csv", no_parse)
    assert np.array_equal(tio.read_profile_csv("bowl.csv").u, bowl.u)
    assert np.array_equal(tio.read_profile_csv(tmp_path / "bowl.csv").psi,
                          bowl.psi)
    tio.write_profile_csv(bowl, tmp_path / "bowl.csv")
    assert sorted(tio._memo) == [str(tmp_path / "bowl.csv"),
                                 str(tmp_path / "catenoid.csv")]


def test_memo_entry_is_read_only_as_its_own_kind(tmp_path):
    # a grid held at a path is parsed, and refused, by the profile reader
    path = tmp_path / "g.csv"
    tio.write_grid_csv(wavy_grid(), path)
    with pytest.raises(TranslabError, match="is not a profile CSV"):
        tio.read_profile_csv(path)


def no_hash(path):
    raise AssertionError(f"hashed {path}")


def test_memo_hashes_only_a_file_the_size_of_its_entry(tmp_path, monkeypatch):
    # a read of a path with no entry, what every separate CLI process does,
    # or whose entry is of another size parses unhashed
    g, p = tmp_path / "g.csv", tmp_path / "p.csv"
    tio.write_grid_csv(wavy_grid(), g)
    tio.write_profile_csv(radial.shoot_bowl(2, 1.0, 1e-2), p)
    tio._memo.clear()
    monkeypatch.setattr(tio, "_digest", no_hash)
    expected = tio.read_grid_csv(g).values
    tio.read_profile_csv(p)
    tio.write_profile_csv(radial.shoot_bowl(2, 1.0, 1e-2), tmp_path / "q.csv")
    tio.write_grid_csv(wavy_grid(), tmp_path / "h.csv")
    assert np.array_equal(tio.read_grid_csv(g).values, expected)
    tio.write_grid_csv(wavy_grid(), g)
    with open(g, "a") as f:                 # a comment line the parse skips
        f.write("# appended\n")
    assert np.array_equal(tio.read_grid_csv(g).values, expected)
    assert held(g)[2] != g.stat().st_size


def test_memo_read_racing_a_rewrite_holds_nothing(tmp_path, monkeypatch):
    # the file at path changes from b's bytes to a's, the held ones, between
    # the reader's hash and its parse; b is a with one digit changed, so of
    # the held size; a later read of b's bytes must still give b
    a, path = wavy_grid(), tmp_path / "f.csv"
    tio.write_grid_csv(a, path)
    entry = held(path)
    a_bytes = path.read_bytes()
    b_bytes = bytearray(a_bytes)
    k = len(b_bytes) - 2                    # the last digit of the last u
    b_bytes[k] = ord("1") if b_bytes[k] != ord("1") else ord("2")
    b_last = float(b_bytes.decode().splitlines()[-1].split(",")[-1])
    path.write_bytes(b_bytes)
    digest = tio._digest

    def digest_then_rewrite(p):
        out = digest(p)
        path.write_bytes(a_bytes)
        return out

    monkeypatch.setattr(tio, "_digest", digest_then_rewrite)
    assert np.array_equal(tio.read_grid_csv(path).values, a.values)
    monkeypatch.setattr(tio, "_digest", digest)
    assert tio._memo == {str(path): entry}
    path.write_bytes(b_bytes)
    assert tio.read_grid_csv(path).values[-1, -1] == b_last != a.values[-1, -1]


@pytest.mark.parametrize("kind", ["profile", "grid"])
def test_memo_and_parse_refuse_a_nan_alike(tmp_path, kind):
    # "nan" reads back as the positive quiet NaN, whatever the sign and
    # payload written, so the held array could differ from the parsed one:
    # both are refused instead
    path = tmp_path / f"{kind}.csv"
    if kind == "profile":
        p = radial.shoot_bowl(2, 1.0, 1e-2)
        p.u[3] = -np.nan
        tio.write_profile_csv(p, path)
        read, message = tio.read_profile_csv, "profile samples must be finite"
    else:
        g = grid.from_function(lambda X, Y: X * Y, -1, 1, -1, 1, 9, 9)
        g.values[2, 3] = -np.nan
        tio.write_grid_csv(g, path)
        read, message = tio.read_grid_csv, "grid values must be finite"
    assert held(path)[0] == kind
    with pytest.raises(TranslabError, match=message):
        read(path)
    tio._memo.clear()
    with pytest.raises(TranslabError, match=message):
        read(path)


def test_profile_refuses_an_n_that_is_not_an_int(tmp_path):
    # its CSV header n=2.0 would not read back; a numpy integer is an int
    with pytest.raises(ValueError, match=re.escape(
            "profile n must be an integer, got 2.0")):
        radial.shoot_bowl(2.0, 1.0, 1e-2)
    tio.write_profile_csv(radial.shoot_bowl(np.int64(2), 1.0, 1e-2),
                          tmp_path / "p.csv")
    assert held(tmp_path / "p.csv")[3]["n"] == 2
    tio._memo.clear()
    assert tio.read_profile_csv(tmp_path / "p.csv").n == 2


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


def feed(pipe, data: bytes) -> threading.Thread:
    """A started thread that writes data to pipe, a path or a descriptor,
    and closes it."""
    def write():
        with open(pipe, "wb") as f:
            f.write(data)
    thread = threading.Thread(target=write, daemon=True)
    thread.start()
    return thread


def test_csv_reads_from_a_pipe(tmp_path, monkeypatch):
    # a pipe can be read once: it is parsed without a hash, though the memo
    # holds, for the pipe's own path, the content it carries
    g, fifo, written = wavy_grid(), tmp_path / "fifo", []
    os.mkfifo(fifo)
    drain = threading.Thread(target=lambda: written.append(fifo.read_bytes()),
                             daemon=True)
    drain.start()
    tio.write_grid_csv(g, fifo)
    drain.join(timeout=10)
    entry = held(fifo)
    monkeypatch.setattr(tio, "_digest", no_hash)
    writer = feed(fifo, written[0])
    assert np.array_equal(tio.read_grid_csv(fifo).values, g.values)
    writer.join(timeout=10)
    assert tio._memo == {str(fifo): entry}


@pytest.mark.parametrize("kind", ["profile", "grid"])
def test_export_obj_reads_a_pipe(tmp_path, kind):
    # what a shell's <(cat in.csv) passes: the head that picks the reader and
    # the rows must come through one open, as a second open of /dev/fd/N
    # reads on from where the first stopped (it exited 1, "/dev/fd/63 is
    # not a profile CSV")
    src = tmp_path / "in.csv"
    if kind == "profile":
        tio.write_profile_csv(radial.shoot_bowl(2, 3.0, 1e-2), src)
    else:
        tio.write_grid_csv(wavy_grid(), src)
    tio.export_obj(src, tmp_path / "file.obj")
    r, w = os.pipe()
    writer = feed(w, src.read_bytes())
    try:
        tio.export_obj(f"/dev/fd/{r}", tmp_path / "pipe.obj")
    finally:
        writer.join(timeout=10)
        os.close(r)
    assert (tmp_path / "pipe.obj").read_bytes() == \
        (tmp_path / "file.obj").read_bytes()


# --- CLI ------------------------------------------------------------------------

# the refusals and bounds of the command line: rows of tests/cli_contract.py
globals().update(cli_contract.tests("test_io_cli"))


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
    # the OBJ written with the solve and the one exported from its CSV
    # differ only in the provenance line
    solved = obj.read_text().splitlines()
    exported = (tmp_path / "wing2.obj").read_text().splitlines()
    assert len(solved) == len(exported)
    assert [k for k, (a, b) in enumerate(zip(solved, exported))
            if a != b] == [1]
    assert solved[1].startswith("# command: translab elliptic delta-wing ")
    assert exported[1].startswith("# command: translab export obj ")


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


def test_cli_csf_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(csf, "AMAX_STOP", 50.0)
    log = tmp_path / "log.csv"
    rc = cli.main(["csf", "run", "--shape", "circle", "--radius", "1",
                   "--n", "96", "--out", str(log)])
    assert rc == 0
    verdict = json.loads(capsys.readouterr().out)
    assert abs(verdict["fittedT"] - 0.5) < 5e-3
    assert verdict["typeVerdict"] == "TypeI"
    assert verdict["stopReason"] == "stopAmax"
    header = log.read_text().splitlines()[0]
    assert header == "t,Amax,length,area"


def test_cli_csf_compare(capsys, monkeypatch):
    monkeypatch.setattr(csf, "AMAX_STOP", 30.0)
    rc = cli.main(["csf", "compare", "--shape1", "circle:1",
                   "--shape2", "circle:1", "--gap", "3", "--n", "64"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "PASS"


def test_cli_csf_compare_reports_steps_and_stop_reason(capsys, monkeypatch):
    monkeypatch.setattr(csf, "AMAX_STOP", 30.0)
    rc = cli.main(["csf", "compare", "--shape1", "circle:1",
                   "--shape2", "circle:1", "--gap", "3", "--n", "64"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["stopReason"] == "stopAmax"
    assert isinstance(out["steps"], int) and out["steps"] > 0
    assert out["schema"] == "translab-comparison/2"
    assert 0 < out["leastDistance"] <= out["initialDistance"]
    assert not {"times", "minDistance"} & out.keys()

def test_cli_csf_run_report_holds_the_log_counters_not_its_series(
        tmp_path, capsys, monkeypatch):
    # 56 samples: the parent wrote the time series of a log under 65 samples
    monkeypatch.setattr(csf, "AMAX_STOP", 3.0)
    rc = cli.main(["csf", "run", "--n", "16", "--out", str(tmp_path / "log.csv")])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    log = csf.run(csf.make_circle(1.0, 16))
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
    (["csf", "run", "--n", "16", "--out", "{tmp}/l.csv"],
     ["csf", "run", "--n", "64", "--out", "{tmp}/l.csv"]),
    (["csf", "compare", "--n", "16"], ["csf", "compare", "--n", "32"]),
    (["radial", "shoot", "--rmax", "1", "--h", "0.05", "--out", "{tmp}/p.csv"],
     ["radial", "shoot", "--rmax", "5", "--h", "0.01", "--out", "{tmp}/p.csv"]),
], ids=["catalog", "csf-run", "csf-compare", "radial-shoot"])
def test_cli_report_keys_do_not_depend_on_size(tmp_path, capsys, monkeypatch,
                                               small, large):
    # a flow of the small run stops at Amax 3, of the large one at 30
    keys = []
    for amax_stop, argv in ((3.0, small), (30.0, large)):
        monkeypatch.setattr(csf, "AMAX_STOP", amax_stop)
        assert cli.main([a.format(tmp=tmp_path) for a in argv]) == 0
        keys.append(set(json.loads(capsys.readouterr().out)))
    assert keys[0] == keys[1]


def test_cli_csf_reruns_byte_identical(tmp_path, monkeypatch):
    log, run_json, cmp_json = (tmp_path / f for f in ("log.csv", "run.json", "cmp.json"))
    runs = ((50.0, ["csf", "run", "--shape", "ellipse", "--n", "64",
                    "--out", str(log), "--report", str(run_json)]),
            (30.0, ["csf", "compare", "--shape1", "circle:1", "--shape2",
                    "circle:2", "--n", "48", "--report", str(cmp_json)]))
    outputs = []
    for _ in range(2):
        for amax_stop, argv in runs:
            monkeypatch.setattr(csf, "AMAX_STOP", amax_stop)
            assert cli.main(argv) == 0
        outputs.append([p.read_bytes() for p in (log, run_json, cmp_json)])
    assert outputs[0] == outputs[1]


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


def test_cli_singular_jacobian_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(elliptic, "_jacobian", lambda jet, hx, hy:
                        sp.csc_matrix((jet[0].size, jet[0].size)))
    rc = cli.main(["elliptic", "delta-wing", "--b", "2.0", "--L", "8",
                   "--nx", "41", "--ny", "41"])
    assert rc == 1
    assert "singular" in capsys.readouterr().err


def test_cli_catalog_plane_report(capsys):
    rc = cli.main(["catalog", "residual", "--kind", "plane"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["maxGrad"] == "inf" and out["is_graph"] is False
    assert out["maxAbs"] == 0.0


@pytest.mark.parametrize("kind", ["catenoid-upper", "catenoid-lower"],
                         ids=["0-catenoid-upper", "1-catenoid-lower"])
def test_cli_shoots_one_catenoid_wing(tmp_path, capsys, kind):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    rc = cli.main(["radial", "shoot", "--kind", kind, "--lam", "1",
                   "--rmax", "2", "--h", "0.01", "--out", str(got)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["kind"] == kind
    tio.write_profile_csv(radial.shoot_catenoid_wing(
        2, 1.0, 2.0, 0.01, radial.RadialKind(kind)), want)
    assert got.read_bytes() == want.read_bytes()


def test_cli_csf_compare_ellipse_shape(capsys, monkeypatch):
    monkeypatch.setattr(csf, "AMAX_STOP", 30.0)
    rc = cli.main(["csf", "compare", "--shape1", "ellipse:2:1",
                   "--shape2", "circle:3", "--n", "64"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "PASS"
    # the semi-major axis 2 sits 1 inside the circle (polygon chords: 1.2e-3)
    assert abs(out["initialDistance"] - 1.0) < 5e-3


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


