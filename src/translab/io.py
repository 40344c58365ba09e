"""Flat-file serialization: CSV for fields and time series, JSON for reports,
OBJ for meshes.

Floats are written with 17 significant digits, so GridFunction CSV round-trips
bit-exactly and identical runs produce byte-identical files (no timestamps).
"""

from __future__ import annotations

import json
import math
from dataclasses import is_dataclass, fields as dc_fields

import numpy as np

from . import __version__
from .errors import IoError
from .geom import GeometryField, graph_geometry, q_squared
from .grid import GridFunction
from .radial import RadialProfile, RadialKind, profile_curvatures

_F = "%.17g"


def _fmt(x) -> str:
    return _F % float(x)


# --- GridFunction CSV ---------------------------------------------------------


def write_grid_csv(u: GridFunction, path):
    """Columns i, j, x, y, u with a metadata comment line; bit-exact."""
    with open(path, "w") as f:
        f.write(f"# translab-grid nx={u.nx} ny={u.ny} hx={_fmt(u.hx)} "
                f"hy={_fmt(u.hy)} x0={_fmt(u.x0)} y0={_fmt(u.y0)}\n")
        f.write("i,j,x,y,u\n")
        xs, ys = u.xs, u.ys
        for i in range(u.nx):
            for j in range(u.ny):
                f.write(f"{i},{j},{_fmt(xs[i])},{_fmt(ys[j])},"
                        f"{_fmt(u.values[i, j])}\n")


def _read_csv(path, tag: str, ncols: int, **meta_types):
    """(metadata, rows) of a translab CSV: a '# translab-<tag>' line of
    key=value pairs (each converted by meta_types[key]), a column header,
    then rows of ncols numbers.  Anything else raises IoError."""
    with open(path) as f:
        head = f.readline()
        if not head.startswith(f"# translab-{tag}"):
            raise IoError(f"{path} is not a {tag} CSV")
        try:
            raw = dict(kv.split("=") for kv in head.split()[2:])
            meta = {k: conv(raw[k]) for k, conv in meta_types.items()}
            f.readline()  # column header
            rows = np.loadtxt(f, delimiter=",", ndmin=2)
        except (KeyError, ValueError) as exc:
            raise IoError(f"{path}: malformed {tag} CSV: {exc}") from exc
    if rows.shape[1] != ncols:
        raise IoError(f"{path}: expected rows of {ncols} fields")
    return meta, rows


def read_grid_csv(path) -> GridFunction:
    """Grid CSV as write_grid_csv writes it, rows in any order; every node
    (i, j) must appear exactly once, else IoError."""
    meta, rows = _read_csv(path, "grid", 5, nx=int, ny=int, hx=float,
                           hy=float, x0=float, y0=float)
    nx, ny = meta["nx"], meta["ny"]
    i, j = rows[:, 0].astype(int), rows[:, 1].astype(int)
    node = i * ny + j
    if not (np.array_equal(i, rows[:, 0]) and np.array_equal(j, rows[:, 1])
            and np.all((i >= 0) & (i < nx) & (j >= 0) & (j < ny))
            and np.array_equal(np.bincount(node, minlength=nx * ny),
                               np.ones(nx * ny, dtype=int))):
        raise IoError(f"{path}: node indices must cover each of the "
                      f"{nx}x{ny} nodes exactly once")
    vals = np.empty(nx * ny)
    vals[node] = rows[:, 4]
    return GridFunction(values=vals.reshape(nx, ny), **meta)


# --- GeometryField CSV / JSON ---------------------------------------------------


_GEOMETRY_COLUMNS = ["i", "j", "x", "y", "u", "W", "H", "kappa1", "kappa2",
                     "normA2", "Q2", "flags"]


def _geometry_rows(u: GridFunction, geom: GeometryField | None):
    """One row per node in _GEOMETRY_COLUMNS order; flags bit 0: outside the
    valid margin, bit 1: umbilic."""
    geom = geom or graph_geometry(u)
    q2, _ = q_squared(geom, u)
    xs, ys = u.xs, u.ys
    for i in range(u.nx):
        for j in range(u.ny):
            flags = (0 if geom.interior[i, j] else 1) \
                | (2 if geom.umbilic[i, j] else 0)
            yield [i, j, xs[i], ys[j], u.values[i, j], geom.W[i, j],
                   geom.H[i, j], geom.kappa1[i, j], geom.kappa2[i, j],
                   geom.normA2[i, j], q2[i, j], flags]


def write_geometry_csv(u: GridFunction, path, geom: GeometryField | None = None):
    """One row per node, columns i, j, x, y, u, W, H, kappa1, kappa2, normA2,
    Q2, flags; the column order is part of the format."""
    with open(path, "w") as f:
        f.write(",".join(_GEOMETRY_COLUMNS) + "\n")
        for row in _geometry_rows(u, geom):
            f.write(f"{row[0]},{row[1]},"
                    + ",".join([_fmt(x) for x in row[2:-1]]) + f",{row[-1]}\n")


def write_geometry_json(u: GridFunction, path, geom: GeometryField | None = None):
    """Same per-node rows as the CSV, as a JSON array of rows."""
    payload = {"schema": "translab-geometry/1", "columns": _GEOMETRY_COLUMNS,
               "nodes": _jsonable(list(_geometry_rows(u, geom))),
               "version": __version__}
    with open(path, "w") as f:
        json.dump(payload, f)
        f.write("\n")


# --- RadialProfile CSV ----------------------------------------------------------


def write_profile_csv(p: RadialProfile, path):
    """Columns r, u, psi, kappa1, kappa2, H (curvatures by finite differences,
    kappa1 >= kappa2 pointwise among profile/rotational values); the header
    records the row count, so a truncated file is refused on reading."""
    _, k_prof, k_rot, H, _ = profile_curvatures(p)
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


def read_profile_csv(path) -> RadialProfile:
    """Profile CSV as write_profile_csv writes it; IoError unless it holds
    exactly the number of rows its header records."""
    meta, rows = _read_csv(path, "profile", 6, n=int, kind=RadialKind, h=float,
                           lam=lambda v: float(v) if v else None, rows=int)
    expected = meta.pop("rows")
    if len(rows) != expected:
        raise IoError(f"{path}: {len(rows)} rows, header records {expected}")
    return RadialProfile(r=rows[:, 0], u=rows[:, 1], psi=rows[:, 2], **meta)


# --- SingularityLog / comparison CSV -------------------------------------------


def write_log_csv(log, path):
    """Columns t, Amax, length, area."""
    with open(path, "w") as f:
        f.write("t,Amax,length,area\n")
        for k in range(len(log.times)):
            f.write(",".join(_fmt(x) for x in
                             (log.times[k], log.Amax[k], log.length[k],
                              log.area[k])) + "\n")


# --- JSON reports ---------------------------------------------------------------


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer)):
        x = x.item()
    if isinstance(x, np.ndarray):
        if x.ndim > 1:
            return [_jsonable(row) for row in x]
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if is_dataclass(x):
        return {f.name: _jsonable(getattr(x, f.name)) for f in dc_fields(x)}
    if hasattr(x, "value") and hasattr(x, "name"):  # Enum
        return x.value
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return str(x)
    return x


def report_to_json(report, extra: dict | None = None) -> str:
    """Serialize a report dataclass (full float precision, stable key order).

    Large per-node arrays are dropped; scalar fields, small matrices and short
    histories are kept.
    """
    if is_dataclass(report):
        out = {}
        for f in dc_fields(report):
            val = getattr(report, f.name)
            if isinstance(val, np.ndarray) and val.size > 64:
                continue
            out[f.name] = _jsonable(val)
    elif isinstance(report, dict):
        out = _jsonable(report)
    else:
        raise IoError(f"cannot serialize {type(report).__name__}")
    if extra:
        out.update(_jsonable(extra))
    out["version"] = __version__
    return json.dumps(out, indent=2, sort_keys=True)


# --- OBJ export -----------------------------------------------------------------


def export_grid_obj(u: GridFunction, path, provenance: str = ""):
    """Height field as an OBJ quad mesh, y-up: vertex (x, u, y)."""
    if not np.all(np.isfinite(u.values)):
        raise IoError("refusing OBJ export: non-finite heights")
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


def export_revolution_obj(p: RadialProfile, path, samples: int = 128,
                          max_rings: int = 512, provenance: str = ""):
    """Surface of revolution (r, angle) -> (r cos, u, r sin), quad strip mesh.

    The angular direction wraps; the radial direction is open.  Profiles with
    more than max_rings samples are subsampled evenly (integration steps are
    far finer than any mesh needs); endpoints are always kept.
    """
    if not (np.all(np.isfinite(p.r)) and np.all(np.isfinite(p.u))):
        raise IoError("refusing OBJ export: non-finite profile")
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
