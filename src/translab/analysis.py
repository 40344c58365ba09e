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

from .errors import (EmptyMaskError, PerturbationTooLargeError,
                     RegionOutOfBoundsError)
from .geom import (GeometryField, drift_laplacian, flip_orientation,
                   graph_geometry, interior_jet, q_squared, surface_gradient)
from .grid import GridFunction


@dataclass
class VariationSpec:
    """Compactly supported normal-variation bump.

    Tensor-product squared-cosine bump of the given center and radii; it must
    vanish identically within two nodes of the grid boundary.
    """

    center: tuple = (0.0, 0.0)
    radius: tuple = (1.0, 1.0)
    epsilon: float = 1e-4

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        rx, ry = self.radius if isinstance(self.radius, tuple) else \
            (self.radius, self.radius)
        if rx <= 0 or ry <= 0:
            raise ValueError("bump radii must be positive")
        self.radius = (float(rx), float(ry))

    def profile(self, u: GridFunction) -> np.ndarray:
        X, Y = u.meshgrid()
        cx, cy = self.center
        rx, ry = self.radius
        tx = np.clip(np.abs(X - cx) / rx, 0.0, 1.0)
        ty = np.clip(np.abs(Y - cy) / ry, 0.0, 1.0)
        phi = np.cos(0.5 * math.pi * tx) ** 2 * np.cos(0.5 * math.pi * ty) ** 2
        phi[tx >= 1.0] = 0.0
        phi[ty >= 1.0] = 0.0
        support = phi > 0
        if support[:2, :].any() or support[-2:, :].any() \
                or support[:, :2].any() or support[:, -2:].any():
            raise ValueError("bump support must stay two nodes off the boundary")
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
        raise RegionOutOfBoundsError("quadrature region exceeds the grid")
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


def first_variation_check(u: GridFunction, v: VariationSpec,
                          richardson: bool = True) -> float:
    """Central-difference derivative of the weighted area under a normal bump.

    The normal perturbation eps*phi*N is realized as the height change
    eps*phi*W (exact to first order); on a translator the derivative vanishes
    to O(eps^2 + h^2).  With richardson=True the two-scale estimate
    (4 D(eps/2) - D(eps)) / 3 removes the leading eps^2 term.
    """
    phi = v.profile(u)
    p, q = interior_jet(u.values, u.hx, u.hy)[:2]
    W = np.ones((u.nx, u.ny))  # on the margin; the bump vanishes there anyway
    W[1:-1, 1:-1] = np.sqrt(1.0 + p * p + q * q)
    direction = phi * W

    cx, cy = v.center
    rx, ry = v.radius
    margin = 2.0 * max(u.hx, u.hy)
    region = (max(cx - rx - margin, u.xs[1]), min(cx + rx + margin, u.xs[-2]),
              max(cy - ry - margin, u.ys[1]), min(cy + ry + margin, u.ys[-2]))

    def derivative(eps):
        try:
            up = GridFunction(u.nx, u.ny, u.hx, u.hy, u.x0, u.y0,
                              u.values + eps * direction)
            um = GridFunction(u.nx, u.ny, u.hx, u.hy, u.x0, u.y0,
                              u.values - eps * direction)
        except Exception as exc:
            raise PerturbationTooLargeError(str(exc)) from exc
        for g in (up, um):
            gx, gy = interior_jet(g.values, u.hx, u.hy)[:2]
            if not np.all(np.isfinite(gx)) or not np.all(np.isfinite(gy)):
                raise PerturbationTooLargeError("perturbed surface is not a graph")
        val = (weighted_area(up, region) - weighted_area(um, region)) / (2 * eps)
        if not math.isfinite(val):
            raise PerturbationTooLargeError("weighted area overflowed")
        return val

    d1 = derivative(v.epsilon)
    if not richardson:
        return d1
    d2 = derivative(0.5 * v.epsilon)
    return (4.0 * d2 - d1) / 3.0


def stability_apply(u: GridFunction, geom: GeometryField,
                    phi: np.ndarray) -> np.ndarray:
    """Stability operator: drift Laplacian plus |A|^2, applied to phi."""
    return drift_laplacian(phi, u, geom) + geom.normA2 * phi


def jacobi_field_defect(u: GridFunction, geom: GeometryField | None = None) -> float:
    """max |L (e3 . N)| over the valid interior; O(h^2) on translators."""
    geom = geom or graph_geometry(u)
    phi = geom.N[..., 2]
    out = stability_apply(u, geom, phi)
    vals = out[np.isfinite(out)]
    if vals.size == 0:
        raise EmptyMaskError("no valid interior nodes")
    return float(np.max(np.abs(vals)))


def gradH_identity_check(u: GridFunction, geom: GeometryField | None = None) -> float:
    """max |grad_M H - A(e3^T, .)| over the valid interior.

    The second fundamental form acts on the tangential part of e3 through the
    shape operator assembled from the principal decomposition.
    """
    geom = geom or graph_geometry(u)
    gradH = surface_gradient(geom.H, u, geom)
    e3n = geom.N[..., 2]
    e3t = -e3n[..., None] * geom.N
    e3t[..., 2] += 1.0
    c1 = np.einsum("ijk,ijk->ij", e3t, geom.v1)
    c2 = np.einsum("ijk,ijk->ij", e3t, geom.v2)
    Ae3 = (geom.kappa1 * c1)[..., None] * geom.v1 \
        + (geom.kappa2 * c2)[..., None] * geom.v2
    diff = gradH - Ae3
    mag = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    vals = mag[np.isfinite(mag)]
    if vals.size == 0:
        raise EmptyMaskError("no valid interior nodes")
    return float(np.max(vals))


@dataclass
class SpruckXiaoReport:
    """Convexity-identity fields in the mean-convex orientation.

    lhsInequality = drift(H/k1) + 2 (grad k1 / k1) . grad(H/k1) should be
    <= 0 up to discretization noise on translators; tolerance tau = 10 h
    max|A|^3 bands the third-derivative noise.
    """

    HoverK1: np.ndarray = field(repr=False)
    Q2: np.ndarray = field(repr=False)
    defectDriftH: np.ndarray = field(repr=False)
    defectDriftK1: np.ndarray = field(repr=False)
    lhsInequality: np.ndarray = field(repr=False)
    umbilicMask: np.ndarray = field(repr=False)
    mask: np.ndarray = field(repr=False)
    tau: float = 0.0
    maxDefectDriftH: float = 0.0
    maxDefectDriftK1: float = 0.0
    fracInequalityHolds: float = 0.0
    rangeHoverK1: tuple = (0.0, 0.0)
    orientationFlipped: bool = False


def spruck_xiao_report(u: GridFunction, geom: GeometryField | None = None) -> SpruckXiaoReport:
    """Evaluate the drift-curvature identities and the H/kappa1 inequality.

    Requires H of a single sign on the evaluation set; when H < 0 (downward
    translator seen with the upward normal) all curvature fields are flipped
    to the mean-convex orientation first.  Reports maxima and the fraction of
    masked nodes satisfying lhsInequality <= tau; asserts nothing.
    """
    geom = geom or graph_geometry(u)
    flipped = bool(np.nanmedian(geom.H[geom.interior]) < 0)
    convex = flip_orientation(geom) if flipped else geom
    k1, k2 = convex.kappa1, convex.kappa2
    H = k1 + k2

    q2, umb = q_squared(convex, u)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = H / k1
        ratio[umb] = np.nan

    dH = drift_laplacian(H, u, geom)
    dK1 = drift_laplacian(k1, u, geom)
    defect_h = dH + geom.normA2 * H
    with np.errstate(divide="ignore", invalid="ignore"):
        defect_k1 = dK1 + geom.normA2 * k1 - 2.0 * q2 / (k1 - k2)

    grad_ratio = surface_gradient(ratio, u, geom)
    grad_k1 = surface_gradient(k1, u, geom)
    d_ratio = drift_laplacian(ratio, u, geom)
    with np.errstate(divide="ignore", invalid="ignore"):
        lhs = d_ratio + 2.0 * np.einsum("ijk,ijk->ij", grad_k1, grad_ratio) / k1

    mask = np.isfinite(lhs) & np.isfinite(defect_k1) & ~umb
    if not mask.any():
        raise EmptyMaskError("all nodes umbilic or outside the margin")

    h = max(u.hx, u.hy)
    amax = float(np.nanmax(np.sqrt(geom.normA2[mask])))
    tau = 10.0 * h * amax ** 3
    frac = float(np.mean(lhs[mask] <= tau))
    rvals = ratio[mask & np.isfinite(ratio)]
    return SpruckXiaoReport(
        HoverK1=ratio, Q2=q2, defectDriftH=defect_h, defectDriftK1=defect_k1,
        lhsInequality=lhs, umbilicMask=umb, mask=mask, tau=tau,
        maxDefectDriftH=float(np.max(np.abs(defect_h[mask]))),
        maxDefectDriftK1=float(np.max(np.abs(defect_k1[mask]))),
        fracInequalityHolds=frac,
        rangeHoverK1=(float(np.min(rvals)), float(np.max(rvals))),
        orientationFlipped=flipped)

