"""Closed-form translators and the exact translator-PDE residual.

The family covered here is indexed by the tilt theta in [0, pi/2): the tilted
grim reapers over strips of width pi/cos(theta), with theta = 0 the grim
reaper u = log cos x.  Vertical planes, the theta -> pi/2 limit, are not
graphs; plane_report stands for them.  All formulas use the downward
translation convention, so residual == 0 characterizes the family exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TranslabError
from .grid import GridFunction
from . import geom as _geom

# analytic evaluation refuses points this close to the strip edge
# (log cos would lose all digits or blow up)
DOMAIN_GUARD = 1e-9
# sample_grid covers this fraction of the strip half-width in x and in y
HALF_WIDTH_FRAC = 0.9
# sample_grid refuses an h whose grid has more nodes than this.  `catalog
# residual` (2 vCPU) took 1.13 s at peak RSS 168 MB on 1001^2 nodes and
# 2.08 s at 458 MB on 2000^2: 97 B and 0.32 us per node over a 71 MB, 0.8 s
# launch.  At the bound that is about 1 GB and 4 s; h = 1e-7 would ask for
# 8e14 nodes.
_MAX_NODES = 10_000_000


def _check_tilt(theta: float):
    if not (0.0 <= theta < math.pi / 2):
        raise TranslabError("theta must lie in [0, pi/2)")


def half_width(theta: float) -> float:
    """Strip half-width pi / (2 cos theta) of the tilt-theta reaper."""
    _check_tilt(theta)
    return math.pi / (2.0 * math.cos(theta))


def _height(theta: float, x, y):
    """(u, x cos theta) of the tilt-theta reaper at interior points, x and y
    broadcast together; TranslabError in the guard band or outside it."""
    _check_tilt(theta)
    c = math.cos(theta)
    sec = 1.0 / c
    arg = np.asarray(x, dtype=float) * c
    if np.any(math.pi / 2 - np.abs(arg) < DOMAIN_GUARD):
        raise TranslabError("point outside the open strip (or in the guard band)")
    y = np.asarray(y, dtype=float)
    return sec * sec * np.log(np.cos(arg)) - math.tan(theta) * y, arg


def evaluate(theta: float, x, y):
    """Exact jet (u, (u_x, u_y), (u_xx, u_xy, u_yy)) of the tilt-theta reaper
    at interior points.

    u = sec^2(theta) log cos(x cos theta) - tan(theta) y; the strip variable
    is x, the translation-invariant direction is y.
    """
    u, arg = _height(theta, x, y)
    sec = 1.0 / math.cos(theta)
    ux = -sec * np.tan(arg)
    uy = np.full_like(u, -math.tan(theta))
    uxx = -1.0 / np.cos(arg) ** 2
    uxy = np.zeros_like(u)
    uyy = np.zeros_like(u)
    return u, (ux, uy), (uxx, uxy, uyy)


def pde_residual(u, Du, D2u):
    """Translator equation residual of a jet; zero iff the jet solves it.

    (1 + u_y^2) u_xx - 2 u_x u_y u_xy + (1 + u_x^2) u_yy + u_x^2 + u_y^2 + 1
    """
    ux, uy = Du
    uxx, uxy, uyy = D2u
    return ((1.0 + uy * uy) * uxx - 2.0 * ux * uy * uxy
            + (1.0 + ux * ux) * uyy + ux * ux + uy * uy + 1.0)


@dataclass
class ResidualReport:
    """Aggregate translator-PDE residual of a discrete height field."""

    maxAbs: float
    l2: float
    perNode: np.ndarray = field(repr=False)  # (nx, ny), NaN on the margin
    maxGrad: float           # max |Du|, diagnostic
    is_graph: bool = True    # False only for vertical planes (residual 0 by convention)


def residual_report(u: GridFunction) -> ResidualReport:
    """Central-difference residual of the translator PDE at interior nodes."""
    p, q, r, s, t = _geom.interior_jet(u.values, u.hx, u.hy)
    inner = pde_residual(u.values[1:-1, 1:-1], (p, q), (r, s, t))
    del r, s, t
    res = np.full((u.nx, u.ny), np.nan)
    res[1:-1, 1:-1] = inner
    max_abs = float(np.max(np.abs(inner)))
    inner *= inner
    # one row list at a time; fsum is exact, so its order does not matter
    l2 = math.sqrt(math.fsum(itertools.chain.from_iterable(
        map(np.ndarray.tolist, inner))))
    grad2 = p ** 2 + q ** 2
    return ResidualReport(maxAbs=max_abs, l2=l2, perNode=res,
                          maxGrad=float(np.sqrt(np.max(grad2))))


def plane_report() -> ResidualReport:
    """Vertical planes translate trivially; residual 0 by convention, flagged."""
    return ResidualReport(maxAbs=0.0, l2=0.0, perNode=np.zeros((0, 0)),
                          maxGrad=math.inf, is_graph=False)


def check_step(h: float):
    """Refuse a grid step h that is not finite and positive."""
    if not (math.isfinite(h) and h > 0):
        raise TranslabError(f"step h must be finite and positive, not {h!r}")


def sample_grid(theta: float, h: float) -> GridFunction:
    """Sample the tilt-theta reaper on a truncated strip.

    Both x and y range over +-(HALF_WIDTH_FRAC * half_width(theta)).  Node
    counts are chosen so the spacing is h rounded to fit; an h that needs
    more than _MAX_NODES nodes is refused.
    """
    check_step(h)
    w = half_width(theta) * HALF_WIDTH_FRAC
    # clamped before int(): 2 w / h is inf for a subnormal h
    n = max(int(round(min(2 * w / h, _MAX_NODES))) + 1, 5)
    if n * n > _MAX_NODES:
        raise TranslabError(f"step h = {h!r} needs more than {_MAX_NODES} grid nodes")
    step = 2 * w / (n - 1)
    side = -w + step * np.arange(n)
    u, _ = _height(theta, side[:, None], side[None, :])
    return GridFunction(n, n, step, step, -w, -w, u)
