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


@dataclass
class GeometryField:
    """Per-node differential geometry of a graph with the upward normal.

    Arrays are (nx, ny); vector fields are (nx, ny, 3).  `grid` is the graph
    and p, q its slopes u_x, u_y.  Nodes outside the one-node interior hold
    NaN; `interior` marks valid nodes and `umbilic` marks nodes where
    principal directions (and Q^2) are undefined.
    """

    grid: GridFunction = field(repr=False)
    p: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)
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
    with the upward normal (the downward one has curvatures -kappa2, -kappa1).
    Each intermediate is released once its last use is done.  The whole
    body runs under one errstate: non-finite interior second differences,
    W, kappa1 or principal-direction norms are refused instead.
    """
    p, q, r, s, t = (np.full((u.nx, u.ny), np.nan) for _ in range(5))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for out, d in zip((p, q, r, s, t), interior_jet(u.values, u.hx, u.hy)):
            out[1:-1, 1:-1] = d
        w2 = 1.0 + p * p + q * q
        W = np.sqrt(w2)
        if not all(np.all(np.isfinite(a[1:-1, 1:-1])) for a in (r, s, t, W)):
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
        del scale

        # eigenvector of S for kappa1 in parameter components, picking the
        # better-conditioned row of (S - kappa1 I)
        a_row1, b_row1 = s12, kappa1 - s11
        a_row2, b_row2 = kappa1 - s22, s21
        del s11, s12, s21, s22
        use2 = (a_row2 * a_row2 + b_row2 * b_row2) \
            > (a_row1 * a_row1 + b_row1 * b_row1)
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
        del a, b
        norm = np.sqrt(np.sum(v1 * v1, axis=-1))
        if not all(np.all(np.isfinite(a[1:-1, 1:-1])) for a in (kappa1, norm)):
            raise TranslabError("difference quotients overflowed")
        v1 /= norm[..., None]
        del norm
        # v2 = N x v1, the tangent-plane complement of v1, is exactly the
        # kappa2 eigenspace (np.cross's products, without its temporaries)
        v2 = np.empty_like(v1)
        for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            v2[..., k] = N[..., i] * v1[..., j] - N[..., j] * v1[..., i]

        normA2 = kappa1 * kappa1 + kappa2 * kappa2
        H = kappa1 + kappa2

        interior = np.zeros((u.nx, u.ny), dtype=bool)
        interior[1:-1, 1:-1] = True
        for arr in (v1, v2):
            arr[~interior] = np.nan
        umbilic &= interior
        return GeometryField(grid=u, p=p, q=q, W=W, N=N, H=H, kappa1=kappa1,
                             kappa2=kappa2, v1=v1, v2=v2, normA2=normA2,
                             interior=interior, umbilic=umbilic)


def _raised_gradient(phi: np.ndarray, geom: GeometryField):
    """(phi_x, phi_y) and W^2 g^{ij} phi_j = ((1 + q^2) phi_x - pq phi_y,
    (1 + p^2) phi_y - pq phi_x) of a scalar field on geom's grid."""
    if phi.shape != geom.p.shape:
        raise TranslabError("scalar field shape mismatch")
    p, q, g = geom.p, geom.q, geom.grid
    fx, fy = _dx(phi, g.hx), _dy(phi, g.hy)
    return fx, fy, (1.0 + q * q) * fx - p * q * fy, (1.0 + p * p) * fy - p * q * fx


def surface_gradient(phi: np.ndarray, geom: GeometryField) -> np.ndarray:
    """Tangential gradient of a scalar field as a 3-vector per node.

    Valid one node further inside than phi's own validity.
    """
    p, q = geom.p, geom.q
    _, _, rx, ry = _raised_gradient(phi, geom)
    w2 = 1.0 + p * p + q * q
    # contravariant components: g^{ij} phi_j
    cx, cy = rx / w2, ry / w2
    grad = np.empty(p.shape + (3,))
    grad[..., 0] = cx
    grad[..., 1] = cy
    grad[..., 2] = cx * p + cy * q
    return grad


def drift_laplacian(phi: np.ndarray, geom: GeometryField) -> np.ndarray:
    """Drift Laplacian: surface Laplacian minus the e3-directional term.

    Conservative form (1/W) d_i(W g^{ij} phi_j) minus (u_x phi_x + u_y phi_y)/W^2,
    second-order accurate on the two-node interior.
    """
    g, W = geom.grid, geom.W
    if g.nx < 5 or g.ny < 5:
        raise TranslabError("drift Laplacian needs a two-node margin")
    fx, fy, rx, ry = _raised_gradient(phi, geom)
    # flux = W g^{ij} phi_j  (sqrt(det g) = W for graphs)
    lap = (_dx(rx / W, g.hx) + _dy(ry / W, g.hy)) / W
    drift = (geom.p * fx + geom.q * fy) / (W * W)
    return lap - drift


def q_squared(geom: GeometryField):
    """Codazzi form of Q^2: (grad_{v2} kappa1)^2 + (grad_{v1} kappa2)^2.

    NaN at the nodes geom.umbilic marks, never a fabricated value.
    """
    g = geom.grid
    if g.nx < 5 or g.ny < 5:
        raise TranslabError("Q^2 needs a two-node margin")
    v1, v2, k1, k2 = geom.v1, geom.v2, geom.kappa1, geom.kappa2
    # directional derivative along a unit tangent v: v_x d_x + v_y d_y on the
    # parameter plane (tangent vectors satisfy v = a F_x + b F_y with
    # (a, b) = (v^1, v^2)); each derivative is dropped once multiplied
    d1k2 = v1[..., 0] * _dx(k2, g.hx) + v1[..., 1] * _dy(k2, g.hy)
    d2k1 = v2[..., 0] * _dx(k1, g.hx) + v2[..., 1] * _dy(k1, g.hy)
    q2 = d2k1 * d2k1 + d1k2 * d1k2
    return np.where(geom.umbilic, np.nan, q2)
