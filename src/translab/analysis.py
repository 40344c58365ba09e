"""Variational and convexity diagnostics for graphical translators.

Weighted area uses the height-weighted functional whose critical points are
exactly the downward translators (orientation-free when the defect is written
through the mean curvature vector).  The convexity ("H over kappa") report
follows the principal-curvature identities at non-umbilic points; since the
package's fixed orientation makes downward translators mean-concave (H < 0
with the upward normal), those fields are evaluated in the mean-convex
orientation, i.e. on the sign-flipped shape operator, where the inequality
chain applies verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TranslabError
from .geom import (drift_laplacian, graph_geometry, interior_jet, q_squared,
                   surface_gradient)
from .grid import GridFunction

# step of first_variation_check's central differences, eps and eps / 2
EPSILON = 1e-4


@dataclass
class VariationSpec:
    """Compactly supported normal-variation bump.

    Tensor-product squared-cosine bump of the given center and radius (the
    same in x and y); it must vanish identically within two nodes of the
    grid boundary.
    """

    center: tuple = (0.0, 0.0)
    radius: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(c) for c in self.center):
            raise TranslabError("bump center must be finite")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise TranslabError("bump radius must be finite and positive")

    def profile(self, u: GridFunction) -> np.ndarray:
        X, Y = u.meshgrid()
        cx, cy = self.center
        with np.errstate(over="ignore"):  # a quotient past 1 clips to 1
            tx = np.clip(np.abs(X - cx) / self.radius, 0.0, 1.0)
            ty = np.clip(np.abs(Y - cy) / self.radius, 0.0, 1.0)
        phi = np.cos(0.5 * math.pi * tx) ** 2 * np.cos(0.5 * math.pi * ty) ** 2
        phi[tx >= 1.0] = 0.0
        phi[ty >= 1.0] = 0.0
        support = phi > 0
        if not support.any():
            raise TranslabError("bump support holds no grid node")
        if support[:2, :].any() or support[-2:, :].any() \
                or support[:, :2].any() or support[:, -2:].any():
            raise TranslabError("bump support must stay two nodes off the boundary")
        return phi


def weighted_area(u: GridFunction, region: tuple) -> float:
    """Height-weighted area integral exp(-u) W over a coordinate rectangle.

    region = (x_lo, x_hi, y_lo, y_hi); midpoint quadrature on grid cells whose
    centers lie in the region, compensated summation.
    """
    x_lo, x_hi, y_lo, y_hi = region
    xs, ys = u.xs, u.ys
    if x_lo < xs[0] - 1e-12 or x_hi > xs[-1] + 1e-12 \
            or y_lo < ys[0] - 1e-12 or y_hi > ys[-1] + 1e-12:
        raise TranslabError("quadrature region exceeds the grid")
    v = u.values
    # cell-centered values and one-sided (exact at center) derivatives
    with np.errstate(over="ignore"):
        uc = 0.25 * (v[:-1, :-1] + v[1:, :-1] + v[:-1, 1:] + v[1:, 1:])
        ux = (v[1:, :-1] + v[1:, 1:] - v[:-1, :-1] - v[:-1, 1:]) / (2 * u.hx)
        uy = (v[:-1, 1:] + v[1:, 1:] - v[:-1, :-1] - v[1:, :-1]) / (2 * u.hy)
        W = np.hypot(ux, uy)
        W = np.sqrt(1.0 + W * W)
    cx = 0.5 * (xs[:-1] + xs[1:])
    cy = 0.5 * (ys[:-1] + ys[1:])
    CX, CY = np.meshgrid(cx, cy, indexing="ij")
    sel = (CX >= x_lo) & (CX <= x_hi) & (CY >= y_lo) & (CY <= y_hi)
    with np.errstate(over="ignore", invalid="ignore"):
        contrib = np.exp(-uc[sel]) * W[sel] * u.hx * u.hy
    return math.fsum(contrib.tolist())


def first_variation_check(u: GridFunction, v: VariationSpec) -> float:
    """Central-difference derivative of the weighted area under a normal bump.

    The normal perturbation eps*phi*N is realized as the height change
    eps*phi*W (exact to first order); on a translator the derivative vanishes
    to O(eps^4 + h^2): the two-scale estimate (4 D(eps/2) - D(eps)) / 3,
    eps = EPSILON, removes the leading eps^2 term of the central difference D.
    """
    phi = v.profile(u)
    W = np.ones((u.nx, u.ny))  # on the margin; the bump vanishes there anyway
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        p, q = interior_jet(u.values, u.hx, u.hy)[:2]    # refused below
        W[1:-1, 1:-1] = np.sqrt(1.0 + p * p + q * q)
    if not np.all(np.isfinite(W)):
        raise TranslabError("difference quotients overflowed")
    direction = phi * W

    cx, cy = v.center
    r = v.radius
    margin = 2.0 * max(u.hx, u.hy)
    region = (max(cx - r - margin, u.xs[1]), min(cx + r + margin, u.xs[-2]),
              max(cy - r - margin, u.ys[1]), min(cy + r + margin, u.ys[-2]))

    def derivative(eps):
        up = GridFunction(u.nx, u.ny, u.hx, u.hy, u.x0, u.y0,
                          u.values + eps * direction)
        um = GridFunction(u.nx, u.ny, u.hx, u.hy, u.x0, u.y0,
                          u.values - eps * direction)
        val = (weighted_area(up, region) - weighted_area(um, region)) / (2 * eps)
        if not math.isfinite(val):
            raise TranslabError("weighted area overflowed")
        return val

    d1 = derivative(EPSILON)
    d2 = derivative(0.5 * EPSILON)
    return (4.0 * d2 - d1) / 3.0


def jacobi_field_defect(u: GridFunction) -> float:
    """max |L (e3 . N)| over the valid interior, where L = drift Laplacian +
    |A|^2 is the stability operator; O(h^2) on translators."""
    geom = graph_geometry(u)
    e3n = geom.N[..., 2]
    out = drift_laplacian(e3n, geom) + geom.normA2 * e3n
    vals = out[np.isfinite(out)]
    if vals.size == 0:
        raise TranslabError("no valid interior nodes")
    return float(np.max(np.abs(vals)))


@dataclass
class SpruckXiaoReport:
    """Convexity-identity fields in the mean-convex orientation.

    lhsInequality = drift(H/k1) + 2 (grad k1 / k1) . grad(H/k1) should be
    <= 0 up to discretization noise on translators; tolerance tau = 10 h
    max|A|^3 bands the third-derivative noise.
    """

    lhsInequality: np.ndarray = field(repr=False)
    mask: np.ndarray = field(repr=False)
    tau: float = 0.0
    maxDefectDriftH: float = 0.0
    maxDefectDriftK1: float = 0.0
    fracInequalityHolds: float = 0.0
    rangeHoverK1: tuple = (0.0, 0.0)
    orientationFlipped: bool = False


def spruck_xiao_report(u: GridFunction) -> SpruckXiaoReport:
    """Evaluate the drift-curvature identities and the H/kappa1 inequality.

    Requires H of a single sign on the evaluation set; when H < 0 (downward
    translator seen with the upward normal) all curvature fields are flipped
    to the mean-convex orientation first.  Reports maxima and the fraction of
    masked nodes satisfying lhsInequality <= tau; asserts nothing.
    """
    geom = graph_geometry(u)
    with np.errstate(divide="ignore", invalid="ignore"):  # k1 = 0, inf - inf
        flipped = bool(np.nanmedian(geom.H[geom.interior]) < 0)
        k1, k2 = geom.kappa1, geom.kappa2
        if flipped:  # Q^2 and the umbilic mask do not depend on orientation
            k1, k2 = -k2, -k1
        H = k1 + k2

        q2, umb = q_squared(geom), geom.umbilic
        ratio = H / k1
        ratio[umb] = np.nan

        dH = drift_laplacian(H, geom)
        dK1 = drift_laplacian(k1, geom)
        defect_h = dH + geom.normA2 * H
        defect_k1 = dK1 + geom.normA2 * k1 - 2.0 * q2 / (k1 - k2)

        grad_ratio = surface_gradient(ratio, geom)
        grad_k1 = surface_gradient(k1, geom)
        d_ratio = drift_laplacian(ratio, geom)
        lhs = d_ratio + 2.0 * np.einsum("ijk,ijk->ij", grad_k1, grad_ratio) / k1

    mask = np.isfinite(lhs) & np.isfinite(defect_k1) & ~umb
    if not mask.any():
        raise TranslabError("all nodes umbilic or outside the margin")

    h = max(u.hx, u.hy)
    amax = float(np.nanmax(np.sqrt(geom.normA2[mask])))
    tau = 10.0 * h * amax ** 3
    frac = float(np.mean(lhs[mask] <= tau))
    rvals = ratio[mask & np.isfinite(ratio)]
    return SpruckXiaoReport(
        lhsInequality=lhs, mask=mask, tau=tau,
        maxDefectDriftH=float(np.max(np.abs(defect_h[mask]))),
        maxDefectDriftK1=float(np.max(np.abs(defect_k1[mask]))),
        fracInequalityHolds=frac,
        rangeHoverK1=(float(np.min(rvals)), float(np.max(rvals))),
        orientationFlipped=flipped)

