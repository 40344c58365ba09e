"""Test oracles: computations that only the tests read.

The closed-form jet of the tilted grim reapers (criterion 1), the
drift-curvature identities of a radial profile (criterion 4) and the
roundness of a curve (criterion 10) check the package's output; no command
and no library path needs them.  So do the grid sampler, the flipped
geometry and the per-node residual that the tests build their inputs and
expectations from.  Each is the package code it replaced, so it gives the
same bits on the same input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from translab import catalog, csf, geom, radial
from translab.errors import TranslabError
from translab.grid import GridFunction

# evaluate refuses points this close to the strip edge (log cos would lose
# all digits or blow up)
DOMAIN_GUARD = 1e-9
# radial_identities_report refuses a window where |kappa1 - kappa2| < this
UMBILIC_GUARD = 1e-3


def evaluate(theta: float, x, y):
    """Exact jet (u, (u_x, u_y), (u_xx, u_xy, u_yy)) of the tilt-theta reaper
    at interior points, x and y broadcast together; TranslabError for a tilt
    outside [0, pi/2) and for points in the guard band or outside the strip.

    u = sec^2(theta) log cos(x cos theta) - tan(theta) y; the strip variable
    is x, the translation-invariant direction is y.
    """
    if not (0.0 <= theta < math.pi / 2):
        raise TranslabError("theta must lie in [0, pi/2)")
    c = math.cos(theta)
    sec = 1.0 / c
    arg = np.asarray(x, dtype=float) * c
    if np.any(math.pi / 2 - np.abs(arg) < DOMAIN_GUARD):
        raise TranslabError("point outside the open strip (or in the guard band)")
    y = np.asarray(y, dtype=float)
    u = sec * sec * np.log(np.cos(arg)) - math.tan(theta) * y
    ux = -sec * np.tan(arg)
    uy = np.full_like(u, -math.tan(theta))
    uxx = -1.0 / np.cos(arg) ** 2
    uxy = np.zeros_like(u)
    uyy = np.zeros_like(u)
    return u, (ux, uy), (uxx, uxy, uyy)


def arclength(p: radial.RadialProfile) -> np.ndarray:
    """Arclength s_k of a profile's samples along its polyline, s_0 = 0: the
    variable that radial.profile_curvatures differences in."""
    return np.concatenate([[0.0], np.cumsum(np.hypot(np.diff(p.r), np.diff(p.u)))])


@dataclass
class RadialIdentityReport:
    """Finite-difference check of the two drift-curvature identities."""

    maxDefectK1: float
    maxDefectH: float
    translatorLike: bool    # True when maxDefectH is small vs |A|^2 |H| scale


def radial_identities_report(p: radial.RadialProfile, r_lo: float,
                             r_hi: float) -> RadialIdentityReport:
    """Evaluate the drift identities for kappa1 and H on [r_lo, r_hi].

    kappa1 >= kappa2 are the pointwise-sorted principal curvatures (surface
    dimension 2 in R^3 is assumed here).  The window must stay clear of
    umbilic samples; the bowl tip needs r_lo >= 0.1 in practice.
    """
    if p.n != 2:
        raise TranslabError("identity report applies to surfaces in R^3 (n = 2)")
    s = arclength(p)
    k_prof, k_rot, H = radial.profile_curvatures(p)
    normA2 = k_prof ** 2 + (p.n - 1) * k_rot ** 2
    k1 = np.maximum(k_prof, k_rot)
    k2 = np.minimum(k_prof, k_rot)

    gap = 2  # endpoint one-sided differences are first-order; keep clear
    sel = (p.r >= r_lo) & (p.r <= r_hi)
    sel[:2 * gap] = False
    sel[-2 * gap:] = False
    if not np.any(sel):
        raise TranslabError("empty identity window")
    if np.min(np.abs((k1 - k2)[sel])) < UMBILIC_GUARD:
        raise TranslabError(
            "window contains near-umbilic samples; shrink it")

    # Q^2 = (d kappa_rot / ds)^2: by rotational symmetry the angular
    # derivative of either curvature vanishes, and the Codazzi expression
    # reduces to the profile derivative of the rotational curvature
    q2 = np.gradient(k_rot, s) ** 2

    def drift(phi):
        ps = np.gradient(phi, s)
        pss = np.gradient(ps, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            rot = (p.n - 1) * (np.cos(p.psi) / p.r) * ps
        return pss + rot - np.sin(p.psi) * ps

    with np.errstate(divide="ignore", invalid="ignore"):
        defect_k1 = drift(k1) + normA2 * k1 - 2.0 * q2 / (k1 - k2)
    defect_h = drift(H) + normA2 * H

    d1 = float(np.max(np.abs(defect_k1[sel])))
    dh = float(np.max(np.abs(defect_h[sel])))
    scale = float(np.max(np.abs((normA2 * H)[sel])))
    return RadialIdentityReport(maxDefectK1=d1, maxDefectH=dh,
                                translatorLike=bool(dh <= 0.05 * max(scale, 1e-30)))


def roundness(c: csf.CurveState):
    """max kappa / min kappa (1 for circles).

    Returns (ratio, convex); for non-convex curves (min kappa <= 0 in the
    orientation-normalized sign) the ratio of |kappa| extremes is returned
    with convex=False.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa, _, signed_area = csf._polyline_kernel(c.points)
    if not np.all(np.isfinite(kappa)):
        raise TranslabError("consecutive curve points coincide")
    k = kappa * np.sign(signed_area)
    kmin, kmax = float(np.min(k)), float(np.max(k))
    if kmin <= 0.0:
        ak = np.abs(k)
        ratio = float(np.max(ak) / max(np.min(ak), 1e-300))
        return ratio, False
    return kmax / kmin, True


def from_function(f, x0: float, x1: float, y0: float, y1: float,
                  nx: int, ny: int) -> GridFunction:
    """Sample u = f(X, Y) on the closed rectangle [x0,x1] x [y0,y1]."""
    hx = (x1 - x0) / (nx - 1)
    hy = (y1 - y0) / (ny - 1)
    X, Y = np.meshgrid(x0 + hx * np.arange(nx), y0 + hy * np.arange(ny),
                       indexing="ij")
    return GridFunction(nx, ny, hx, hy, x0, y0, np.asarray(f(X, Y), dtype=float))


def flip_orientation(g: geom.GeometryField) -> geom.GeometryField:
    """The geometry with the opposite normal: N, H and A negate, so kappa1 is
    -kappa2 and v1 is v2; the grid, slopes, W, |A|^2 and the translator
    defect are unchanged."""
    return replace(g, N=-g.N, H=-g.H, kappa1=-g.kappa2,
                   kappa2=-g.kappa1, v1=g.v2, v2=g.v1)


def residual_field(u: GridFunction) -> np.ndarray:
    """Per-node translator-PDE residual of a height field, (nx, ny), NaN on
    the margin: the central-difference residual that catalog.residual_report
    aggregates."""
    p, q, r, s, t = geom.interior_jet(u.values, u.hx, u.hy)
    res = np.full((u.nx, u.ny), np.nan)
    res[1:-1, 1:-1] = catalog.pde_residual(u.values[1:-1, 1:-1], (p, q), (r, s, t))
    return res
