"""Byte equality of every file writer in translab.io against per-row reference
writers kept here.

The references are the straightforward one-row-at-a-time writers that define
the formats.  Comparing against them, rather than pinning sha256 values,
keeps the test valid where a libm or SIMD build rounds a transcendental
differently: both sides format the same floats.
"""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from translab import __version__, csf, io as tio, radial
from translab.geom import graph_geometry, q_squared

_F = "%.17g"


def _fmt(x) -> str:
    return _F % float(x)


# --- reference writers -----------------------------------------------------------


def ref_write_grid_csv(u, path):
    with open(path, "w") as f:
        f.write(f"# translab-grid nx={u.nx} ny={u.ny} hx={_fmt(u.hx)} "
                f"hy={_fmt(u.hy)} x0={_fmt(u.x0)} y0={_fmt(u.y0)}\n")
        f.write("i,j,x,y,u\n")
        xs, ys = u.xs, u.ys
        for i in range(u.nx):
            for j in range(u.ny):
                f.write(f"{i},{j},{_fmt(xs[i])},{_fmt(ys[j])},"
                        f"{_fmt(u.values[i, j])}\n")


_GEOMETRY_COLUMNS = ["i", "j", "x", "y", "u", "W", "H", "kappa1", "kappa2",
                     "normA2", "Q2", "flags"]


def _ref_geometry_rows(u, geom):
    geom = geom or graph_geometry(u)
    q2 = q_squared(geom)
    xs, ys = u.xs, u.ys
    for i in range(u.nx):
        for j in range(u.ny):
            flags = (0 if geom.interior[i, j] else 1) \
                | (2 if geom.umbilic[i, j] else 0)
            yield [i, j, xs[i], ys[j], u.values[i, j], geom.W[i, j],
                   geom.H[i, j], geom.kappa1[i, j], geom.kappa2[i, j],
                   geom.normA2[i, j], q2[i, j], flags]


def ref_write_geometry_csv(u, path, geom=None):
    with open(path, "w") as f:
        f.write(",".join(_GEOMETRY_COLUMNS) + "\n")
        for row in _ref_geometry_rows(u, geom):
            f.write(f"{row[0]},{row[1]},"
                    + ",".join([_fmt(x) for x in row[2:-1]]) + f",{row[-1]}\n")


def _ref_jsonable(x):
    # the branches of the report serializer that per-node rows reach
    if isinstance(x, (np.floating, np.integer)):
        x = x.item()
    if isinstance(x, (list, tuple)):
        return [_ref_jsonable(v) for v in x]
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return str(x)
    return x


def ref_write_geometry_json(u, path, geom=None):
    payload = {"schema": "translab-geometry/1", "columns": _GEOMETRY_COLUMNS,
               "nodes": _ref_jsonable(list(_ref_geometry_rows(u, geom))),
               "version": __version__}
    with open(path, "w") as f:
        json.dump(payload, f)
        f.write("\n")


def ref_write_profile_csv(p, path):
    k_prof, k_rot, H = radial.profile_curvatures(p)
    k1 = np.maximum(k_prof, k_rot)
    k2 = np.minimum(k_prof, k_rot)
    lam = "" if p.lam is None else _fmt(p.lam)
    with open(path, "w") as f:
        f.write(f"# translab-profile n={p.n} kind={p.kind.value} lam={lam} "
                f"h={_fmt(p.h)} rows={len(p.r)}\n")
        f.write("r,u,psi,kappa1,kappa2,H\n")
        for k in range(len(p.r)):
            f.write(",".join(_fmt(x) for x in
                             (p.r[k], p.u[k], p.psi[k], k1[k], k2[k], H[k]))
                    + "\n")


def ref_write_log_csv(log, path):
    with open(path, "w") as f:
        f.write("t,Amax,length,area\n")
        for k in range(len(log.times)):
            f.write(",".join(_fmt(x) for x in
                             (log.times[k], log.Amax[k], log.length[k],
                              log.area[k])) + "\n")


def ref_export_grid_obj(u, path, provenance=""):
    xs, ys = u.xs, u.ys
    lines = [f"# translab {__version__}"]
    if provenance:
        lines.append(f"# command: {provenance}")
    for i in range(u.nx):
        for j in range(u.ny):
            lines.append(f"v {_fmt(xs[i])} {_fmt(u.values[i, j])} {_fmt(ys[j])}")
    for i in range(u.nx - 1):
        for j in range(u.ny - 1):
            a = i * u.ny + j + 1
            b = (i + 1) * u.ny + j + 1
            lines.append(f"f {a} {b} {b + 1} {a + 1}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def ref_export_revolution_obj(p, path, provenance=""):
    max_rings, samples = 512, 128
    n = len(p.r)
    if n > max_rings:
        keep = np.unique(np.linspace(0, n - 1, max_rings).round().astype(int))
    else:
        keep = np.arange(n)
    rr, uu = p.r[keep], p.u[keep]
    ang = 2 * math.pi * np.arange(samples) / samples
    ca, sa = np.cos(ang), np.sin(ang)
    lines = [f"# translab {__version__}"]
    if provenance:
        lines.append(f"# command: {provenance}")
    for k in range(len(rr)):
        for m in range(samples):
            lines.append(f"v {_fmt(rr[k] * ca[m])} {_fmt(uu[k])} "
                         f"{_fmt(rr[k] * sa[m])}")
    for k in range(len(rr) - 1):
        for m in range(samples):
            m2 = (m + 1) % samples
            a = k * samples + m + 1
            b = k * samples + m2 + 1
            c = (k + 1) * samples + m2 + 1
            d = (k + 1) * samples + m + 1
            lines.append(f"f {a} {b} {c} {d}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


# --- fixed inputs ----------------------------------------------------------------


@pytest.fixture(scope="module")
def inputs():
    bowl = radial.shoot_bowl(2, 2.0, 1e-2)
    upper, lower = (radial.shoot_catenoid_wing(2, 1.0, 2.0, 1e-2, kind)
                    for kind in (radial.RadialKind.CATENOID_UPPER,
                                 radial.RadialKind.CATENOID_LOWER))
    tip = radial.profile_to_grid(bowl, -1.0, 1.0, -1.0, 1.0, 9, 9)
    geom = graph_geometry(tip)
    W, H = geom.W.copy(), geom.H.copy()
    W[4, 3], H[4, 5] = math.inf, -math.inf
    t = np.linspace(0.0, 0.49, 23)
    return {
        "wavy": oracles.from_function(lambda X, Y: np.sin(X) * np.cos(Y) / 3,
                                      -1, 1, -1, 1, 9, 7),
        "big": oracles.from_function(lambda X, Y: np.exp(X) * np.sin(3 * Y),
                                     -1, 1, -2, 2, 81, 61),
        "long_line": oracles.from_function(lambda X, Y: np.cos(X + Y) / 3,
                                           -1, 1, -3, 3, 5, 4099),
        "short_lines": oracles.from_function(lambda X, Y: np.sin(X - Y) / 3,
                                             -3, 3, -1, 1, 4099, 5),
        # x = 0 and y = 0 are nodes: -0.0 next to 0.0, and every value
        # repeated by the point reflection (x, y) -> (-x, -y)
        "signs": oracles.from_function(lambda X, Y: X * Y, -1, 1, -1.5, 1.5,
                                       9, 7),
        "tip": tip,
        "tip_geom_inf": (tip, dataclasses.replace(geom, W=W, H=H)),
        "bowl": bowl,
        "catenoid_upper": upper,
        "catenoid_lower": lower,
        "long": radial.shoot_bowl(2, 6.0, 1e-2),
        "short": radial.shoot_bowl(2, 0.3, 1e-2),
        "log": csf.SingularityLog(times=t, Amax=1.0 / (1.0 - 2.0 * t),
                                  length=2 * math.pi * np.sqrt(1.0 - 2.0 * t),
                                  area=math.pi * (1.0 - 2.0 * t)),
        "log_empty": csf.SingularityLog(times=np.zeros(0), Amax=np.zeros(0),
                                        length=np.zeros(0), area=np.zeros(0)),
    }


PROV = "translab export obj --in p.csv --out p.obj"
# header lines are text: the writers encode them as text mode does
PROV_UTF8 = "translab export obj --in Fläche.csv --out 曲面 ±∞.obj"

CASES = [
    ("write_grid_csv", "wavy", {}),
    ("write_grid_csv", "tip", {}),
    ("write_grid_csv", "big", {}),
    ("write_grid_csv", "long_line", {}),
    ("write_grid_csv", "short_lines", {}),
    ("write_geometry_csv", "wavy", {}),
    ("write_geometry_csv", "tip", {}),
    ("write_geometry_csv", "tip_geom_inf", {}),
    ("write_geometry_csv", "big", {}),
    ("write_geometry_csv", "long_line", {}),
    ("write_geometry_csv", "short_lines", {}),
    ("write_geometry_json", "wavy", {}),
    ("write_geometry_json", "tip", {}),
    ("write_geometry_json", "tip_geom_inf", {}),
    ("write_geometry_json", "big", {}),
    ("write_geometry_json", "long_line", {}),
    ("write_geometry_json", "short_lines", {}),
    ("write_grid_csv", "signs", {}),
    ("export_grid_obj", "signs", {}),
    ("write_geometry_csv", "signs", {}),
    ("write_geometry_json", "signs", {}),
    ("write_profile_csv", "bowl", {}),
    ("write_profile_csv", "catenoid_upper", {}),
    ("write_profile_csv", "catenoid_lower", {}),
    ("write_profile_csv", "long", {}),
    ("write_log_csv", "log", {}),
    ("write_log_csv", "log_empty", {}),
    ("export_grid_obj", "wavy", {}),
    ("export_grid_obj", "tip", {"provenance": PROV}),
    ("export_grid_obj", "big", {}),
    ("export_grid_obj", "long_line", {}),
    ("export_grid_obj", "short_lines", {}),
    ("export_grid_obj", "wavy", {"provenance": PROV_UTF8}),
    ("export_revolution_obj", "bowl", {}),
    ("export_revolution_obj", "catenoid_upper", {"provenance": PROV}),
    ("export_revolution_obj", "long", {}),
    ("export_revolution_obj", "long", {"provenance": PROV}),
    ("export_revolution_obj", "short", {}),
    ("export_revolution_obj", "bowl", {"provenance": PROV_UTF8}),
]
# a case's id ends in its count of keyword arguments; a revolution case
# counts one more, kept from when each also passed an angular sample count
IDS = [f"{w}-{k}-{len(kw) + (w == 'export_revolution_obj')}"
       for w, k, kw in CASES]


def test_inputs_reach_every_special_case(inputs):
    geom = graph_geometry(inputs["tip"])
    assert np.isnan(geom.H).any() and not geom.interior.all()
    assert geom.umbilic.any()
    assert inputs["catenoid_upper"].lam is not None
    assert len(inputs["long"].r) > 512
    # tables of more than one block; the long profile's 512 rings at 128
    # angular samples end on a block boundary, the bowl's 201 do not
    assert inputs["big"].nx * inputs["big"].ny > tio._BLOCK_ROWS
    assert 512 * tio._SAMPLES % tio._BLOCK_ROWS == 0
    assert len(inputs["bowl"].r) * tio._SAMPLES % tio._BLOCK_ROWS != 0
    # grid tables whose blocks end inside a grid line (ny rows): one line
    # longer than a block, and many short lines that do not divide one
    assert inputs["long_line"].ny > tio._BLOCK_ROWS
    assert tio._BLOCK_ROWS % inputs["short_lines"].ny != 0
    assert inputs["short_lines"].nx * inputs["short_lines"].ny > tio._BLOCK_ROWS
    # a provenance line that is not ASCII
    assert not PROV_UTF8.isascii()
    assert len(inputs["short"].r) < tio._MAX_RINGS
    # texts are formatted once per bit pattern, so -0.0 and 0.0 are two
    u = inputs["signs"].values
    zero = u == 0
    assert (zero & np.signbit(u)).any() and (zero & ~np.signbit(u)).any()
    assert np.array_equal(u, u[::-1, ::-1])


@pytest.mark.parametrize("writer,key,kwargs", CASES, ids=IDS)
def test_writer_matches_reference(tmp_path, monkeypatch, inputs, writer, key,
                                  kwargs):
    obj = inputs[key]
    ref_kwargs = kwargs
    if isinstance(obj, tuple):  # a grid with a doctored GeometryField
        obj, geom = obj
        monkeypatch.setattr(tio, "graph_geometry", lambda u: geom)
        ref_kwargs = dict(kwargs, geom=geom)
    got, want = tmp_path / "got", tmp_path / "want"
    getattr(tio, writer)(obj, got, **kwargs)
    globals()["ref_" + writer](obj, want, **ref_kwargs)
    assert got.read_bytes() == want.read_bytes()


def _geometry_write_peak(tmp_path, writer):
    """(traced peak, file size) of writing the 161x161 bowl's geometry."""
    bowl = radial.profile_to_grid(radial.shoot_bowl(2, 3.0, 2e-3),
                                  -2.0, 2.0, -2.0, 2.0, 161, 161)
    out = tmp_path / "geometry"
    tracemalloc.start()
    try:
        writer(bowl, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, out.stat().st_size


def test_geometry_json_memory_is_bounded_by_its_file(tmp_path):
    # the node rows are written a block at a time, not built whole and
    # encoded by one json.dumps, and each float field is held as compact
    # bytes texts
    peak, size = _geometry_write_peak(tmp_path, tio.write_geometry_json)
    assert peak < 1.5 * size


def test_geometry_csv_memory_is_bounded_by_its_file(tmp_path):
    # compact bytes texts, gathered a block at a time, as for the JSON
    peak, size = _geometry_write_peak(tmp_path, tio.write_geometry_csv)
    assert peak < 1.5 * size
