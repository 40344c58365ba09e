"""Flat-file serialization: CSV for fields and time series, JSON for reports,
OBJ for meshes.

Floats are written with 17 significant digits, so GridFunction CSV round-trips
bit-exactly and identical runs produce byte-identical files (no timestamps).
Every CSV and OBJ body, and the node rows of the geometry JSON, is one table
of columns, written by _write_table a block of rows at a time.  Int columns
are written as ints.  Each float column of a grid table (x_i, y_j and the
per-node heights and geometry fields) and the ring heights of a revolution
OBJ are formatted once per distinct value (_texts) and reach the rows as
text; the grids translab computes repeat most of their values.  A grid
table is written a grid line at a time, from a line format that already
holds j and y_j, so each row fills in only i, x_i and its per-node values.
"""

from __future__ import annotations

import json
import math
from dataclasses import is_dataclass, fields as dc_fields

import numpy as np

from . import __version__
from .errors import TranslabError
from .geom import graph_geometry, q_squared
from .grid import GridFunction
from .radial import RadialProfile, RadialKind, profile_curvatures

_F = "%.17g"
_R = "%r"           # JSON floats: repr, as json.dumps writes them
_BLOCK_ROWS = 4096  # rows per % in _write_table; bounds its memory use
_MAX_RINGS = 512    # rings of a revolution OBJ


def _fmt(x) -> str:
    return _F % float(x)


def _rows(fmt: str, columns) -> str:
    """fmt once per entry of the first axis of the equal-shape columns,
    filled in by one %.  Each entry's values fill its fmt row by row (C
    order), in column order within a row.  Values keep their kind: ints
    fill %d fields exactly, and str columns (dtype object) fill %s fields."""
    vals = [None] * sum(c.size for c in columns)
    for k, c in enumerate(columns):
        vals[k::len(columns)] = c.ravel().tolist()
    return (fmt * len(columns[0])) % tuple(vals)


def _texts(a, fmt: str = _F) -> np.ndarray:
    """The fmt text of each value of the float array a, in a's shape.
    Each distinct bit pattern is formatted once, by one % over the
    distinct values (so -0.0 and 0.0 stay apart), and its text gathered
    back to every position that holds it.  With fmt _R a non-finite value
    becomes a JSON string ("nan", "inf", "-inf")."""
    keys, where = np.unique(np.ravel(a).view(np.int64), return_inverse=True)
    vals = keys.view(float)
    texts = np.array(_rows(fmt + "\n", [vals]).split(), dtype=object)
    if fmt == _R:
        bad = ~np.isfinite(vals)
        texts[bad] = [f'"{v}"' for v in vals[bad].tolist()]
    return texts[where].reshape(np.shape(a))


def _write_table(f, fmt: str, columns, skip: int = 0):
    """Write equal-shape columns to f as rows of the %-format fmt, less
    the first skip characters (a separator that leads each row but the
    first).

    fmt formats one run of rows: a column of shape (runs, m) gives m rows
    per run, a 1-D column one.  A grid table runs over one grid line, so
    its fmt holds the text that every line repeats (j and y_j) and each row
    fills in only the rest.  One % covers the whole runs of a block of at
    most _BLOCK_ROWS rows (at least one run), which bounds its memory."""
    step = max(1, _BLOCK_ROWS // math.prod(columns[0].shape[1:]))
    for start in range(0, len(columns[0]), step):
        text = _rows(fmt, [c[start:start + step] for c in columns])
        f.write(text[skip:] if start == 0 else text)


def _line_columns(u: GridFunction, fmt: str = _F):
    """(i, x, y) of the nodes of u for a grid table: i and the fmt text of
    x_i as (nx, ny) views, and the texts of the ny values y_j, which the
    format of one grid line takes."""
    shape = (u.nx, u.ny)
    return (np.broadcast_to(np.arange(u.nx)[:, None], shape),
            np.broadcast_to(_texts(u.xs, fmt)[:, None], shape),
            _texts(u.ys, fmt))


def _line_format(row: str, y) -> str:
    """The format of one grid line of a table whose rows have the format
    row: row once per j, with its "{y}" filled in by the text y[j] and
    its "{j}", if it has one (before "{y}"), by j."""
    lead = [np.arange(len(y))] if "{j}" in row else []
    row = row.replace("%", "%%").replace("{j}", "%d").replace("{y}", "%s")
    return _rows(row, lead + [y])


# --- GridFunction CSV ---------------------------------------------------------


def write_grid_csv(u: GridFunction, path):
    """Columns i, j, x, y, u with a metadata comment line; bit-exact."""
    i, x, y = _line_columns(u)
    fmt = _line_format("%d,{j},%s,{y},%s\n", y)
    with open(path, "w") as f:
        f.write(f"# translab-grid nx={u.nx} ny={u.ny} hx={_fmt(u.hx)} "
                f"hy={_fmt(u.hy)} x0={_fmt(u.x0)} y0={_fmt(u.y0)}\n")
        f.write("i,j,x,y,u\n")
        _write_table(f, fmt, [i, x, _texts(u.values)])


def _read_csv(path, tag: str, ncols: int, **meta_types):
    """(metadata, rows) of a translab CSV: a '# translab-<tag>' line of
    key=value pairs (each converted by meta_types[key]), a column header,
    then rows of ncols numbers.  Anything else raises TranslabError."""
    with open(path) as f:
        head = f.readline()
        if not head.startswith(f"# translab-{tag}"):
            raise TranslabError(f"{path} is not a {tag} CSV")
        try:
            raw = dict(kv.split("=") for kv in head.split()[2:])
            meta = {k: conv(raw[k]) for k, conv in meta_types.items()}
            f.readline()  # column header
            rows = np.loadtxt(f, delimiter=",", ndmin=2)
        except (KeyError, ValueError) as exc:
            raise TranslabError(f"{path}: malformed {tag} CSV: {exc}") from exc
    if rows.shape[1] != ncols:
        raise TranslabError(f"{path}: expected rows of {ncols} fields")
    return meta, rows


def read_grid_csv(path) -> GridFunction:
    """Grid CSV as write_grid_csv writes it, rows in any order; every node
    (i, j) must appear exactly once, else TranslabError."""
    meta, rows = _read_csv(path, "grid", 5, nx=int, ny=int, hx=float,
                           hy=float, x0=float, y0=float)
    nx, ny = meta["nx"], meta["ny"]
    i, j = rows[:, 0].astype(int), rows[:, 1].astype(int)
    node = i * ny + j
    if not (np.array_equal(i, rows[:, 0]) and np.array_equal(j, rows[:, 1])
            and np.all((i >= 0) & (i < nx) & (j >= 0) & (j < ny))
            and np.array_equal(np.bincount(node, minlength=nx * ny),
                               np.ones(nx * ny, dtype=int))):
        raise TranslabError(f"{path}: node indices must cover each of the "
                            f"{nx}x{ny} nodes exactly once")
    vals = np.empty(nx * ny)
    vals[node] = rows[:, 4]
    return GridFunction(values=vals.reshape(nx, ny), **meta)


# --- GeometryField CSV / JSON ---------------------------------------------------


_GEOMETRY_COLUMNS = ["i", "j", "x", "y", "u", "W", "H", "kappa1", "kappa2",
                     "normA2", "Q2", "flags"]


def _geometry_fields(u: GridFunction):
    """The (nx, ny) per-node arrays u, W, H, kappa1, kappa2, normA2, Q2,
    flags of graph_geometry(u), the columns after i, j, x, y of
    _GEOMETRY_COLUMNS; flags bit 0: outside the valid margin, bit 1:
    umbilic."""
    geom = graph_geometry(u)
    q2 = q_squared(geom, u)
    flags = np.where(geom.interior, 0, 1) | np.where(geom.umbilic, 2, 0)
    return [u.values, geom.W, geom.H, geom.kappa1, geom.kappa2, geom.normA2,
            q2, flags]


def _geometry_table(u: GridFunction, fmt: str, row: str, sep: str):
    """(line format, columns) of the geometry table of u: one row per node,
    of the format row with "{j}", "{y}" and "{fields}" in it, filled in by
    i, the texts of x_i and y_j, the fmt texts of the seven float fields
    (joined by sep) and flags."""
    i, x, y = _line_columns(u, fmt)
    *reals, flags = _geometry_fields(u)
    fields = sep.join(["%s"] * len(reals))
    return (_line_format(row.replace("{fields}", fields), y),
            [i, x, *[_texts(a, fmt) for a in reals], flags])


def write_geometry_csv(u: GridFunction, path):
    """One row per node, columns i, j, x, y, u, W, H, kappa1, kappa2, normA2,
    Q2, flags; the column order is part of the format."""
    fmt, columns = _geometry_table(u, _F, "%d,{j},%s,{y},{fields},%d\n", ",")
    with open(path, "w") as f:
        f.write(",".join(_GEOMETRY_COLUMNS) + "\n")
        _write_table(f, fmt, columns)


def write_geometry_json(u: GridFunction, path):
    """Same per-node rows as the CSV, as a JSON array of rows; a non-finite
    float is a string ("nan", "inf", "-inf").  json.dumps writes the head
    and tail; the rows, as it would write them, come from _write_table."""
    # "nodes" holds the only empty list: the head ends where its rows start
    head, tail = json.dumps({"schema": "translab-geometry/1",
                             "columns": _GEOMETRY_COLUMNS, "nodes": [],
                             "version": __version__}).split("[]")
    sep = ", "  # json.dumps's item separator
    fmt, columns = _geometry_table(
        u, _R, sep + "[%d, {j}, %s, {y}, {fields}, %d]", sep)
    with open(path, "w") as f:
        f.write(head + "[")
        _write_table(f, fmt, columns, skip=len(sep))
        f.write("]" + tail + "\n")


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
        _write_table(f, "%.17g," * 5 + "%.17g\n", [p.r, p.u, p.psi, k1, k2, H])


def read_profile_csv(path) -> RadialProfile:
    """Profile CSV as write_profile_csv writes it; TranslabError unless it
    holds exactly the number of rows its header records."""
    meta, rows = _read_csv(path, "profile", 6, n=int, kind=RadialKind, h=float,
                           lam=lambda v: float(v) if v else None, rows=int)
    expected = meta.pop("rows")
    if len(rows) != expected:
        raise TranslabError(f"{path}: {len(rows)} rows, header records {expected}")
    return RadialProfile(r=rows[:, 0], u=rows[:, 1], psi=rows[:, 2], **meta)


# --- SingularityLog / comparison CSV -------------------------------------------


def write_log_csv(log, path):
    """Columns t, Amax, length, area."""
    with open(path, "w") as f:
        f.write("t,Amax,length,area\n")
        _write_table(f, "%.17g," * 3 + "%.17g\n",
                     [log.times, log.Amax, log.length, log.area])


# --- JSON reports ---------------------------------------------------------------


def _jsonable(x):
    if isinstance(x, np.ndarray):
        if x.ndim > 1:
            return [_jsonable(row) for row in x]
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
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
        raise TranslabError(f"cannot serialize {type(report).__name__}")
    if extra:
        out.update(_jsonable(extra))
    out["version"] = __version__
    return json.dumps(out, indent=2, sort_keys=True)


# --- OBJ export -----------------------------------------------------------------


def _write_obj(path, provenance: str, vertex_fmt: str, vertices, faces):
    """OBJ file: version and provenance comments, then the 'v' rows of
    _write_table(vertex_fmt, vertices) and 'f' rows of the four 1-based quad
    index columns."""
    with open(path, "w") as f:
        f.write(f"# translab {__version__}\n")
        if provenance:
            f.write(f"# command: {provenance}\n")
        _write_table(f, vertex_fmt, vertices)
        _write_table(f, "f %d %d %d %d\n", faces)


def export_grid_obj(u: GridFunction, path, provenance: str = ""):
    """Height field as an OBJ quad mesh, y-up: vertex (x, u, y)."""
    if not np.all(np.isfinite(u.values)):
        raise TranslabError("refusing OBJ export: non-finite heights")
    _, x, y = _line_columns(u)
    a = (u.ny * np.arange(u.nx - 1)[:, None] + np.arange(u.ny - 1) + 1).ravel()
    _write_obj(path, provenance, _line_format("v %s %s {y}\n", y),
               [x, _texts(u.values)], [a, a + u.ny, a + u.ny + 1, a + 1])


def export_revolution_obj(p: RadialProfile, path, samples: int = 128,
                          provenance: str = ""):
    """Surface of revolution (r, angle) -> (r cos, u, r sin), quad strip mesh.

    The angular direction wraps and needs samples >= 3 (ValueError otherwise);
    the radial direction is open.  Profiles with more than _MAX_RINGS samples
    are subsampled evenly (integration steps are far finer than any mesh
    needs); endpoints are always kept.
    """
    if samples < 3:
        raise ValueError(f"revolution export needs at least 3 angular "
                         f"samples, got {samples}")
    if not (np.all(np.isfinite(p.r)) and np.all(np.isfinite(p.u))):
        raise TranslabError("refusing OBJ export: non-finite profile")
    n = len(p.r)  # linspace(0, n - 1, n) is exactly arange(n)
    keep = np.unique(np.linspace(0, n - 1, min(n, _MAX_RINGS)).round().astype(int))
    rr = p.r[keep]
    ang = 2 * math.pi * np.arange(samples) / samples
    ring = samples * np.arange(len(rr) - 1)[:, None] + 1
    a = (ring + np.arange(samples)).ravel()
    b = (ring + (np.arange(samples) + 1) % samples).ravel()
    _write_obj(path, provenance, "v %.17g %s %.17g\n",
               [np.outer(rr, np.cos(ang)).ravel(),
                np.repeat(_texts(p.u[keep]), samples),
                np.outer(rr, np.sin(ang)).ravel()],
               [a, b, b + samples, a + samples])
