"""Discrete differential geometry on graphical surfaces.

Grid-surface quantities use second-order central differences on the graph
parametrization F(x, y) = (x, y, u).  The orientation is fixed to the upward
normal; in this convention a downward translator satisfies the orientation-free
identity H_vec = -e3_perp, i.e. the scalar defect H + <e3, N> vanishes.

Margins: first-derivative quantities (normal, W, curvatures) are valid on the
one-node interior; operators that differentiate derived fields (drift
Laplacian, Q^2, surface gradients of curvatures) need a two-node margin.
Invalid margin nodes hold NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TranslabError
from .grid import GridFunction

# Principal directions and Q^2 are undefined where |k1 - k2| falls below this
# relative tolerance (mirrors the restriction to non-umbilic points).
UMBILIC_REL_TOL = 1e-6


def _dx(a: np.ndarray, hx: float) -> np.ndarray:
    """Central x-derivative of a derived field (curvature, flux) on the
    1-node interior rows; NaN margin rows.  Heights go through interior_jet."""
    out = np.full_like(a, np.nan)
    out[1:-1, :] = (a[2:, :] - a[:-2, :]) / (2.0 * hx)
    return out


def _dy(a: np.ndarray, hy: float) -> np.ndarray:
    out = np.full_like(a, np.nan)
    out[:, 1:-1] = (a[:, 2:] - a[:, :-2]) / (2.0 * hy)
    return out


def interior_jet(v: np.ndarray, hx: float, hy: float):
    """(p, q, r, s, t) = (u_x, u_y, u_xx, u_xy, u_yy) of a height array by
    central differences, each of shape (nx-2, ny-2) on the one-node interior.

    The one difference stencil of the translator equation: the geometry
    pipeline, the catalog residual and the Newton solver all read it here.
    """
    p = (v[2:, 1:-1] - v[:-2, 1:-1]) / (2.0 * hx)
    q = (v[1:-1, 2:] - v[1:-1, :-2]) / (2.0 * hy)
    r = (v[2:, 1:-1] - 2.0 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / (hx * hx)
    s = (v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]) / (4.0 * hx * hy)
    t = (v[1:-1, 2:] - 2.0 * v[1:-1, 1:-1] + v[1:-1, :-2]) / (hy * hy)
    return p, q, r, s, t


def grid_jet(u: GridFunction):
    """interior_jet of u on the full (nx, ny) grid; NaN margin."""
    jet = tuple(np.full((u.nx, u.ny), np.nan) for _ in range(5))
    for out, d in zip(jet, interior_jet(u.values, u.hx, u.hy)):
        out[1:-1, 1:-1] = d
    return jet


@dataclass
class GeometryField:
    """Per-node differential geometry of a graph, upward unless flipped.

    Arrays are (nx, ny); vector fields are (nx, ny, 3).  Nodes outside the
    one-node interior hold NaN; `interior` marks valid nodes and `umbilic`
    marks nodes where principal directions (and Q^2) are undefined.
    """

    W: np.ndarray = field(repr=False)
    N: np.ndarray = field(repr=False)
    H: np.ndarray = field(repr=False)
    kappa1: np.ndarray = field(repr=False)
    kappa2: np.ndarray = field(repr=False)
    v1: np.ndarray = field(repr=False)
    v2: np.ndarray = field(repr=False)
    normA2: np.ndarray = field(repr=False)
    interior: np.ndarray = field(repr=False)
    umbilic: np.ndarray = field(repr=False)


def graph_geometry(u: GridFunction) -> GeometryField:
    """Shape operator, principal curvatures/directions and derived fields,
    with the upward normal; flip_orientation gives the downward one.
    Each intermediate is released once its last use is done.
    """
    p, q, r, s, t = grid_jet(u)
    w2 = 1.0 + p * p + q * q
    W = np.sqrt(w2)
    if not np.all(np.isfinite(W[1:-1, 1:-1])):
        raise TranslabError("difference quotients overflowed")

    N = np.full((u.nx, u.ny, 3), np.nan)
    N[..., 0] = -p / W
    N[..., 1] = -q / W
    N[..., 2] = 1.0 / W

    # shape operator S = g^{-1} h with g from the graph metric and
    # h_ij = D^2u_ij / W (second fundamental form, upward normal)
    h11 = r / W
    h12 = s / W
    h22 = t / W
    del r, s, t
    s11 = ((1.0 + q * q) * h11 - p * q * h12) / w2
    s12 = ((1.0 + q * q) * h12 - p * q * h22) / w2
    s21 = ((1.0 + p * p) * h12 - p * q * h11) / w2
    s22 = ((1.0 + p * p) * h22 - p * q * h12) / w2
    del h11, h12, h22, w2

    tr = s11 + s22
    det = s11 * s22 - s12 * s21
    disc = np.clip(tr * tr - 4.0 * det, 0.0, None)
    del det
    root = np.sqrt(disc)
    del disc
    kappa1 = 0.5 * (tr + root)
    kappa2 = 0.5 * (tr - root)
    del tr, root

    scale = np.maximum(np.maximum(np.abs(kappa1), np.abs(kappa2)), 1.0)
    umbilic = (kappa1 - kappa2) <= UMBILIC_REL_TOL * scale
    umbilic &= np.isfinite(kappa1)
    del scale

    # eigenvector of S for kappa1 in parameter components, picking the
    # better-conditioned row of (S - kappa1 I)
    a_row1, b_row1 = s12, kappa1 - s11
    a_row2, b_row2 = kappa1 - s22, s21
    del s11, s12, s21, s22
    use2 = (a_row2 * a_row2 + b_row2 * b_row2) > (a_row1 * a_row1 + b_row1 * b_row1)
    a = np.where(use2, a_row2, a_row1)
    del a_row1, a_row2
    b = np.where(use2, b_row2, b_row1)
    del b_row1, b_row2, use2
    # near-umbilic fallback: any tangent direction, flagged
    a = np.where(umbilic, 1.0, a)
    b = np.where(umbilic, 0.0, b)

    v1 = np.empty((u.nx, u.ny, 3))
    v1[..., 0] = a
    v1[..., 1] = b
    v1[..., 2] = p * a + q * b
    del p, q, a, b
    norm = np.sqrt(np.sum(v1 * v1, axis=-1))
    v1 /= norm[..., None]
    del norm
    # tangent-plane complement of v1 is exactly the kappa2 eigenspace
    v2 = np.cross(N, v1)

    normA2 = kappa1 * kappa1 + kappa2 * kappa2
    H = kappa1 + kappa2

    interior = np.zeros((u.nx, u.ny), dtype=bool)
    interior[1:-1, 1:-1] = True
    for arr in (v1, v2):
        arr[~interior] = np.nan
    umbilic &= interior
    return GeometryField(W=W, N=N, H=H, kappa1=kappa1, kappa2=kappa2,
                         v1=v1, v2=v2, normA2=normA2, interior=interior,
                         umbilic=umbilic)


def flip_orientation(geom: GeometryField) -> GeometryField:
    """The geometry with the opposite normal: N, H and A negate, so kappa1 is
    -kappa2 and v1 is v2; |A|^2 and the translator defect are unchanged."""
    return GeometryField(
        W=geom.W, N=-geom.N, H=-geom.H,
        kappa1=-geom.kappa2, kappa2=-geom.kappa1,
        v1=geom.v2, v2=geom.v1, normA2=geom.normA2, interior=geom.interior,
        umbilic=geom.umbilic)


def translator_defect(geom: GeometryField) -> np.ndarray:
    """|H_vec + e3_perp| per node, independent of the orientation choice."""
    e3n = geom.N[..., 2]
    return np.abs(geom.H + e3n)


def surface_gradient(phi: np.ndarray, u: GridFunction) -> np.ndarray:
    """Tangential gradient of a scalar field as a 3-vector per node.

    Valid one node further inside than phi's own validity.
    """
    if phi.shape != (u.nx, u.ny):
        raise TranslabError("scalar field shape mismatch")
    p, q = grid_jet(u)[:2]
    fx, fy = _dx(phi, u.hx), _dy(phi, u.hy)
    w2 = 1.0 + p * p + q * q
    # contravariant components: g^{ij} phi_j
    cx = ((1.0 + q * q) * fx - p * q * fy) / w2
    cy = ((1.0 + p * p) * fy - p * q * fx) / w2
    grad = np.empty((u.nx, u.ny, 3))
    grad[..., 0] = cx
    grad[..., 1] = cy
    grad[..., 2] = cx * p + cy * q
    return grad


def drift_laplacian(phi: np.ndarray, u: GridFunction) -> np.ndarray:
    """Drift Laplacian: surface Laplacian minus the e3-directional term.

    Conservative form (1/W) d_i(W g^{ij} phi_j) minus (u_x phi_x + u_y phi_y)/W^2,
    second-order accurate on the two-node interior.
    """
    if u.nx < 5 or u.ny < 5:
        raise TranslabError("drift Laplacian needs a two-node margin")
    if phi.shape != (u.nx, u.ny):
        raise TranslabError("scalar field shape mismatch")
    p, q = grid_jet(u)[:2]
    fx, fy = _dx(phi, u.hx), _dy(phi, u.hy)
    W = np.sqrt(1.0 + p * p + q * q)
    # flux = W g^{ij} phi_j  (sqrt(det g) = W for graphs)
    FX = ((1.0 + q * q) * fx - p * q * fy) / W
    FY = ((1.0 + p * p) * fy - p * q * fx) / W
    lap = (_dx(FX, u.hx) + _dy(FY, u.hy)) / W
    drift = (p * fx + q * fy) / (W * W)
    return lap - drift


def q_squared(geom: GeometryField, u: GridFunction):
    """Codazzi form of Q^2: (grad_{v2} kappa1)^2 + (grad_{v1} kappa2)^2.

    NaN at the nodes geom.umbilic marks, never a fabricated value.
    """
    if u.nx < 5 or u.ny < 5:
        raise TranslabError("Q^2 needs a two-node margin")
    k1x, k1y = _dx(geom.kappa1, u.hx), _dy(geom.kappa1, u.hy)
    k2x, k2y = _dx(geom.kappa2, u.hx), _dy(geom.kappa2, u.hy)
    # directional derivative along a unit tangent v: v_x d_x + v_y d_y on the
    # parameter plane (tangent vectors satisfy v = a F_x + b F_y with
    # (a, b) = (v^1, v^2))
    d1k2 = geom.v1[..., 0] * k2x + geom.v1[..., 1] * k2y
    d2k1 = geom.v2[..., 0] * k1x + geom.v2[..., 1] * k1y
    q2 = d2k1 * d2k1 + d1k2 * d1k2
    return np.where(geom.umbilic, np.nan, q2)

