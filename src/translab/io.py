"""Flat-file serialization: CSV for fields and time series, JSON for reports,
OBJ for meshes.

Floats are written with 17 significant digits, so GridFunction CSV round-trips
bit-exactly and identical runs produce byte-identical files (no timestamps).
Every CSV and OBJ body, and the node rows of the geometry JSON, is one table
of equal-length 1-D columns (a grid table has one row per node, in C order),
written by _write_table as bytes from a plain row format, a block of at
most _BLOCK_ROWS rows at a time, to a file opened in binary mode; the
header and comment lines are encoded as text mode would write them.  Int
columns are written as ints.  Each float column of a grid table (x_i, y_j
and the per-node heights and geometry fields) and the ring heights of a
revolution OBJ are formatted once per distinct value and held compact
(_texts): the distinct texts in one numpy bytes array and an int32 index
per row, gathered into text one block at a time; the grids translab
computes repeat most of their values.

A grid or profile CSV that this process wrote is not parsed again.  A
memo (_memo) holds the last grid CSV and the last profile CSV written, one
entry per kind, keyed by the sha256 of the bytes written and their count.
A writer hashes the bytes it writes and holds what a read of them returns:
the metadata as parsed from its header line, and the arrays, which their
17-digit texts give back bit for bit (-0.0 included); GridFunction and
RadialProfile refuse a NaN, held or parsed.  A reader hashes the file,
streamed in chunks, only when it is a regular file the size of its kind's
entry; on a match it builds the result from copies of the held arrays,
otherwise it parses and validates the file and holds nothing.  A separate
process (each CLI command) starts with an empty memo, so its read parses
without a hash.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import locale
import math
import os
from dataclasses import is_dataclass, fields as dc_fields
from enum import Enum

import numpy as np

from . import __version__
from .errors import TranslabError
from .geom import graph_geometry, q_squared
from .grid import GridFunction
from .radial import RadialProfile, RadialKind, profile_curvatures

_F = b"%.17g"
_R = b"%r"          # JSON floats: repr, as json.dumps writes them
_BLOCK_ROWS = 1024  # rows per % in _write_table; bounds its memory use
_MAX_RINGS = 512    # rings of a revolution OBJ
# Vertices of a revolution OBJ (rings x angular samples).  export obj of a
# 2,001-sample bowl profile (512 rings; one core, 2 vCPU x86) took 0.86 s
# and 91.5 MB peak RSS at 1,024 samples and 5.78 s and 175.9 MB at 4,096:
# 3.1 us, 56 B of memory and 94 B of file per added vertex.  At the bound
# (8,192 samples at 512 rings) that is about 12 s, 0.3 GB and a 0.4 GB file.
_MAX_VERTICES = 1 << 22


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _encode(text: str) -> bytes:
    """text as open(path, "w") would write it."""
    return text.encode(locale.getpreferredencoding(False))


def _rows(fmt: bytes, columns) -> bytes:
    """fmt once per row of the equal-length 1-D columns, filled in by one %,
    in column order within a row.  Values keep their kind: ints fill %d
    fields exactly, and bytes columns (dtype S) fill %s fields."""
    vals = [None] * (len(columns) * len(columns[0]))
    for k, c in enumerate(columns):
        vals[k::len(columns)] = c.tolist()
    return (fmt * len(columns[0])) % tuple(vals)


class _Texts:
    """A float column as text: its distinct texts, in one bytes array, and
    the int32 index into them of each row (where).  Indexing gathers the
    texts of those rows."""

    def __init__(self, texts: np.ndarray, where: np.ndarray):
        self.texts, self.where = texts, where

    def __len__(self) -> int:
        return len(self.where)

    def __getitem__(self, key) -> np.ndarray:
        return self.texts[self.where[key]]


def _texts(a, fmt: bytes = _F) -> _Texts:
    """The fmt texts of the float array a's values in C order, as a _Texts
    column.  Each distinct bit pattern is formatted once, by one % over the
    distinct values (so -0.0 and 0.0 stay apart).  With fmt _R a
    non-finite value becomes a JSON string ("nan", "inf", "-inf")."""
    keys, where = np.unique(np.ravel(a).view(np.int64), return_inverse=True)
    vals = keys.view(float)
    texts = _rows(fmt + b"\n", [vals]).split()
    if fmt == _R:
        for k in np.flatnonzero(~np.isfinite(vals)).tolist():
            texts[k] = b'"' + texts[k] + b'"'
    return _Texts(np.array(texts, dtype=bytes), where.astype(np.int32))


def _write_table(f, fmt: bytes, columns, skip: int = 0):
    """Write equal-length 1-D columns (arrays or _Texts) to the binary file
    f as rows of the %-format fmt, less the first skip bytes (a separator
    that leads each row but the first).  One % covers a block of at most
    _BLOCK_ROWS rows, and a _Texts column is gathered a block at a time,
    which bounds the memory of both."""
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        text = _rows(fmt, [c[start:start + _BLOCK_ROWS] for c in columns])
        f.write(text[skip:] if start == 0 else text)


def _node_columns(u: GridFunction, fmt: bytes = _F):
    """(i, j, x, y) of the nodes of u in C order: i and j as int32 arrays,
    and the fmt texts of x_i and y_j as _Texts columns."""
    i, j = np.indices((u.nx, u.ny), dtype=np.int32).reshape(2, -1)
    x, y = _texts(u.xs, fmt), _texts(u.ys, fmt)
    return i, j, _Texts(x.texts, x.where[i]), _Texts(y.texts, y.where[j])


# --- Grid and profile CSV: header, memo ------------------------------------


class _Hashed:
    """A binary file that also feeds each write to a sha256 (sha) and counts
    the bytes written (size)."""

    def __init__(self, f):
        self.f, self.sha, self.size = f, hashlib.sha256(), 0

    def write(self, data: bytes):
        self.sha.update(data)
        self.size += len(data)
        return self.f.write(data)


# kind ("grid" or "profile") -> (sha256 digest of a file's bytes, their
# count, metadata, arrays) of the last such file written; see the module
# docstring
_memo: dict = {}

_META = {"grid": dict(nx=int, ny=int, hx=float, hy=float, x0=float, y0=float),
         "profile": dict(n=int, kind=RadialKind, h=float,
                         lam=lambda v: float(v) if v else None, rows=int)}


def _head_meta(path, head: str, tag: str) -> dict:
    """The metadata of the first line head of a translab <tag> CSV: its
    key=value pairs, each converted by _META[tag][key]; TranslabError if
    head is no such line."""
    if not head.startswith(f"# translab-{tag}"):
        raise TranslabError(f"{path} is not a {tag} CSV")
    try:
        raw = dict(kv.split("=") for kv in head.split()[2:])
        return {k: conv(raw[k]) for k, conv in _META[tag].items()}
    except (KeyError, ValueError) as exc:
        raise TranslabError(f"{path}: malformed {tag} CSV: {exc}") from exc


def _write_csv(path, tag: str, head: str, fmt: bytes, columns, arrays):
    """Write a translab <tag> CSV (the lines head, then the rows of
    _write_table(fmt, columns)), and hold in _memo what reading it returns:
    the metadata of its first line and copies of arrays."""
    with open(path, "wb") as raw:
        f = _Hashed(raw)
        f.write(_encode(head))
        _write_table(f, fmt, columns)
    meta = _head_meta(path, head.partition("\n")[0], tag)
    meta.pop("rows", None)
    _memo[tag] = (f.sha.digest(), f.size, meta,
                  [np.array(a, dtype=float) for a in arrays])


def _digest(path) -> bytes:
    """sha256 of the file at path, read in chunks of 1 MiB."""
    sha = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            sha.update(chunk)
    return sha.digest()


def _read(path, tag: str, parse):
    """(metadata, arrays) of the <tag> CSV at path: copies of the arrays of
    _memo[tag] if it holds the file's content, else parse(path).  Only a
    regular file (a hash would consume a pipe) of the held size is hashed."""
    held = _memo.get(tag)
    if (held is None or not os.path.isfile(path)
            or os.path.getsize(path) != held[1] or _digest(path) != held[0]):
        return parse(path)
    return held[2], [a.copy() for a in held[3]]


def _read_csv(path, tag: str, ncols: int):
    """(metadata, rows) of a translab CSV: a '# translab-<tag>' line of
    key=value pairs (_head_meta), a column header, then at least one row of
    ncols numbers.  Anything else raises TranslabError."""
    with open(path) as f:
        try:
            head = f.readline()
        except UnicodeDecodeError as exc:
            raise TranslabError(f"{path}: {exc}") from exc
        meta = _head_meta(path, head, tag)
        try:
            f.readline()  # column header
            # np.loadtxt skips empty and '#' lines, and warns if that is all
            first = next((line for line in iter(f.readline, "")
                          if line.partition("#")[0] not in ("", "\n")), None)
            rows = None if first is None else np.loadtxt(
                itertools.chain([first], f), delimiter=",", ndmin=2)
        except ValueError as exc:
            raise TranslabError(f"{path}: malformed {tag} CSV: {exc}") from exc
    if rows is None:
        raise TranslabError(f"{path}: {tag} CSV has no data rows")
    if rows.shape[1] != ncols:
        raise TranslabError(f"{path}: expected rows of {ncols} fields")
    return meta, rows


# --- GridFunction CSV ---------------------------------------------------------


def write_grid_csv(u: GridFunction, path):
    """Columns i, j, x, y, u with a metadata comment line; bit-exact."""
    head = (f"# translab-grid nx={u.nx} ny={u.ny} hx={_fmt(u.hx)} "
            f"hy={_fmt(u.hy)} x0={_fmt(u.x0)} y0={_fmt(u.y0)}\n")
    _write_csv(path, "grid", head + "i,j,x,y,u\n", b"%d,%d,%s,%s,%s\n",
               [*_node_columns(u), _texts(u.values)], [np.ravel(u.values)])


def _parse_grid(path):
    """(metadata, [values in C order]) of a grid CSV, rows in any order;
    every node (i, j) must appear exactly once, else TranslabError."""
    meta, rows = _read_csv(path, "grid", 5)
    nx, ny = meta["nx"], meta["ny"]
    i, j = rows[:, 0].astype(int), rows[:, 1].astype(int)
    node = i * ny + j
    # the row count first: nothing of the header's size is allocated unless
    # the file holds that many rows
    if not (nx >= 1 and ny >= 1 and len(rows) == nx * ny
            and np.array_equal(i, rows[:, 0]) and np.array_equal(j, rows[:, 1])
            and np.all((i >= 0) & (i < nx) & (j >= 0) & (j < ny))
            and np.array_equal(np.bincount(node, minlength=nx * ny),
                               np.ones(nx * ny, dtype=int))):
        raise TranslabError(f"{path}: node indices must cover each of the "
                            f"{nx}x{ny} nodes exactly once ({len(rows)} rows "
                            f"for {nx * ny} nodes)")
    vals = np.empty(nx * ny)
    vals[node] = rows[:, 4]
    return meta, [vals]


def read_grid_csv(path) -> GridFunction:
    """Grid CSV as write_grid_csv writes it, rows in any order; every node
    (i, j) must appear exactly once, else TranslabError."""
    meta, (vals,) = _read(path, "grid", _parse_grid)
    return GridFunction(values=vals.reshape(meta["nx"], meta["ny"]), **meta)


# --- GeometryField CSV / JSON ---------------------------------------------------


_GEOMETRY_COLUMNS = ["i", "j", "x", "y", "u", "W", "H", "kappa1", "kappa2",
                     "normA2", "Q2", "flags"]


def _geometry_table(u: GridFunction, fmt: bytes):
    """The columns of _GEOMETRY_COLUMNS for u: the node columns, the fmt
    texts of the seven float fields u, W, H, kappa1, kappa2, normA2, Q2 of
    graph_geometry(u), and flags (bit 0: outside the valid margin, bit 1:
    umbilic).  Each field is dropped once it is text."""
    geom = graph_geometry(u)
    reals = [u.values, geom.W, geom.H, geom.kappa1, geom.kappa2, geom.normA2,
             q_squared(geom)]
    flags = np.where(geom.interior, 0, 1) | np.where(geom.umbilic, 2, 0)
    del geom
    texts = [_texts(reals.pop(0), fmt) for _ in range(len(reals))]
    return [*_node_columns(u, fmt), *texts, flags.ravel()]


def write_geometry_csv(u: GridFunction, path):
    """One row per node, columns i, j, x, y, u, W, H, kappa1, kappa2, normA2,
    Q2, flags; the column order is part of the format."""
    columns = _geometry_table(u, _F)
    with open(path, "wb") as f:
        f.write(_encode(",".join(_GEOMETRY_COLUMNS) + "\n"))
        _write_table(f, b"%d,%d" + b",%s" * 9 + b",%d\n", columns)


def write_geometry_json(u: GridFunction, path):
    """Same per-node rows as the CSV, as a JSON array of rows; a non-finite
    float is a string ("nan", "inf", "-inf").  json.dumps writes the head
    and tail; the rows, as it would write them, come from _write_table."""
    # "nodes" holds the only empty list: the head ends where its rows start
    head, tail = json.dumps({"schema": "translab-geometry/1",
                             "columns": _GEOMETRY_COLUMNS, "nodes": [],
                             "version": __version__}).split("[]")
    sep = b", "  # json.dumps's item separator
    columns = _geometry_table(u, _R)
    with open(path, "wb") as f:
        f.write(_encode(head + "["))
        _write_table(f, sep + b"[%d, %d" + b", %s" * 9 + b", %d]", columns,
                     skip=len(sep))
        f.write(_encode("]" + tail + "\n"))


# --- RadialProfile CSV ----------------------------------------------------------


def write_profile_csv(p: RadialProfile, path):
    """Columns r, u, psi, kappa1, kappa2, H (curvatures by finite differences,
    kappa1 >= kappa2 pointwise among profile/rotational values); the header
    records the row count, so a truncated file is refused on reading."""
    _, k_prof, k_rot, H, _ = profile_curvatures(p)
    k1 = np.maximum(k_prof, k_rot)
    k2 = np.minimum(k_prof, k_rot)
    lam = "" if p.lam is None else _fmt(p.lam)
    head = (f"# translab-profile n={p.n} kind={p.kind.value} "
            f"lam={lam} h={_fmt(p.h)} rows={len(p.r)}\n")
    _write_csv(path, "profile", head + "r,u,psi,kappa1,kappa2,H\n",
               b"%.17g," * 5 + b"%.17g\n", [p.r, p.u, p.psi, k1, k2, H],
               [p.r, p.u, p.psi])


def _parse_profile(path):
    """(metadata, [r, u, psi]) of a profile CSV; TranslabError unless it
    holds exactly the number of rows its header records."""
    meta, rows = _read_csv(path, "profile", 6)
    expected = meta.pop("rows")
    if len(rows) != expected:
        raise TranslabError(f"{path}: {len(rows)} rows, header records {expected}")
    # copies, so the parse of all six columns is not kept alive by views
    return meta, [rows[:, k].copy() for k in range(3)]


def read_profile_csv(path) -> RadialProfile:
    """Profile CSV as write_profile_csv writes it; TranslabError unless it
    holds exactly the number of rows its header records."""
    meta, (r, u, psi) = _read(path, "profile", _parse_profile)
    return RadialProfile(r=r, u=u, psi=psi, **meta)


# --- SingularityLog / comparison CSV -------------------------------------------


def write_log_csv(log, path):
    """Columns t, Amax, length, area."""
    with open(path, "wb") as f:
        f.write(_encode("t,Amax,length,area\n"))
        _write_table(f, b"%.17g," * 3 + b"%.17g\n",
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
    if isinstance(x, Enum):
        return x.value
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return str(x)
    return x


def _report_fields(report) -> dict:
    """The fields of a result dataclass that belong in its report: all but
    those it declares field(repr=False), its per-node and per-sample arrays."""
    return {f.name: getattr(report, f.name) for f in dc_fields(report) if f.repr}


def report_to_json(report, extra: dict | None = None) -> str:
    """Serialize a report (full float precision, stable key order): a result
    dataclass (_report_fields), a non-empty list of results of one dataclass
    type (one key per field, holding one value per item) or a dict.  An
    Enum is written as its value, a non-finite float as a string."""
    if is_dataclass(report):
        out = _report_fields(report)
    elif (isinstance(report, list) and len({type(r) for r in report}) == 1
          and is_dataclass(report[0])):
        out = {k: [getattr(r, k) for r in report]
               for k in _report_fields(report[0])}
    elif isinstance(report, dict):
        out = dict(report)
    else:
        raise TranslabError(f"cannot serialize {type(report).__name__}")
    out.update(extra or {})
    out = _jsonable(out)
    out["version"] = __version__
    return json.dumps(out, indent=2, sort_keys=True)


# --- OBJ export -----------------------------------------------------------------


def _write_obj(path, provenance: str, vertex_fmt: bytes, vertices, faces):
    """OBJ file: version and provenance comments, then the 'v' rows of
    _write_table(vertex_fmt, vertices) and 'f' rows of the four 1-based quad
    index columns."""
    head = f"# translab {__version__}\n"
    if provenance:
        head += f"# command: {provenance}\n"
    try:  # before the file exists: the provenance may not encode
        head = _encode(head)
    except UnicodeEncodeError as exc:
        raise TranslabError(str(exc)) from exc
    with open(path, "wb") as f:
        f.write(head)
        _write_table(f, vertex_fmt, vertices)
        _write_table(f, b"f %d %d %d %d\n", faces)


def export_grid_obj(u: GridFunction, path, provenance: str = ""):
    """Height field as an OBJ quad mesh, y-up: vertex (x, u, y)."""
    if not np.all(np.isfinite(u.values)):
        raise TranslabError("refusing OBJ export: non-finite heights")
    _, _, x, y = _node_columns(u)
    a = (u.ny * np.arange(u.nx - 1)[:, None] + np.arange(u.ny - 1) + 1).ravel()
    _write_obj(path, provenance, b"v %s %s %s\n", [x, _texts(u.values), y],
               [a, a + u.ny, a + u.ny + 1, a + 1])


def export_revolution_obj(p: RadialProfile, path, samples: int = 128,
                          provenance: str = ""):
    """Surface of revolution (r, angle) -> (r cos, u, r sin), quad strip mesh.

    The angular direction wraps and needs samples >= 3, and rings x samples
    may not exceed _MAX_VERTICES (TranslabError otherwise); the radial direction
    is open.  Profiles with more than _MAX_RINGS samples are subsampled
    evenly (integration steps are far finer than any mesh needs); endpoints
    are always kept.
    """
    if samples < 3:
        raise TranslabError(f"revolution export needs at least 3 angular "
                            f"samples, got {samples}")
    if not (np.all(np.isfinite(p.r)) and np.all(np.isfinite(p.u))):
        raise TranslabError("refusing OBJ export: non-finite profile")
    n = len(p.r)  # linspace(0, n - 1, n) is exactly arange(n)
    keep = np.unique(np.linspace(0, n - 1, min(n, _MAX_RINGS)).round().astype(int))
    if len(keep) * samples > _MAX_VERTICES:
        raise TranslabError(f"revolution export of {len(keep)} rings x {samples} "
                            f"angular samples exceeds the bound of "
                            f"{_MAX_VERTICES} vertices")
    rr = p.r[keep]
    ang = 2 * math.pi * np.arange(samples) / samples
    ring = samples * np.arange(len(rr) - 1)[:, None] + 1
    a = (ring + np.arange(samples)).ravel()
    b = (ring + (np.arange(samples) + 1) % samples).ravel()
    heights = _texts(p.u[keep])
    _write_obj(path, provenance, b"v %.17g %s %.17g\n",
               [np.outer(rr, np.cos(ang)).ravel(),
                _Texts(heights.texts, np.repeat(heights.where, samples)),
                np.outer(rr, np.sin(ang)).ravel()],
               [a, b, b + samples, a + samples])


# infile, not path: perfbench/tracer.py would count this input in io.bytes_written
def export_obj(infile, out, samples: int = 128, provenance: str = ""):
    """OBJ mesh at out of the profile CSV at infile, by its first bytes, or
    else of the grid CSV there (read_grid_csv refuses any other file)."""
    tag = b"# translab-profile"
    with open(infile, "rb") as f:
        profile = f.read(len(tag)) == tag
    if profile:
        export_revolution_obj(read_profile_csv(infile), out, samples, provenance)
    else:
        export_grid_obj(read_grid_csv(infile), out, provenance)
