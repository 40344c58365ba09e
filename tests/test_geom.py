import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translab import geom, grid, radial
from translab.errors import DegenerateEdgeError, MarginTooSmallError


def plane(n=21):
    return grid.from_function(lambda X, Y: np.zeros_like(X), -1, 1, -1, 1, n, n)


def test_flat_plane_is_minimal():
    G = geom.graph_geometry(plane())
    inner = G.interior
    assert np.nanmax(np.abs(G.H[inner])) == 0.0
    assert np.nanmax(np.abs(G.kappa1[inner])) == 0.0
    np.testing.assert_allclose(G.N[10, 10], [0.0, 0.0, 1.0], atol=1e-15)
    assert G.umbilic[inner].all()
    assert np.nanmax(np.abs(G.meanCurvVec[inner])) == 0.0


def test_paraboloid_osculates_unit_sphere():
    # u = -(x^2+y^2)/2 with the upward normal: both curvatures -1, H = -2,
    # and tr D^2u = -2 at the critical point
    g = grid.from_function(lambda X, Y: -(X**2 + Y**2) / 2,
                           -0.5, 0.5, -0.5, 0.5, 41, 41)
    G = geom.graph_geometry(g)
    ic = 20
    assert abs(G.kappa1[ic, ic] + 1.0) < 1e-10
    assert abs(G.kappa2[ic, ic] + 1.0) < 1e-10
    assert abs(G.H[ic, ic] + 2.0) < 1e-10
    _, _, r, _, t = geom.grid_jet(g)
    assert abs(r[ic, ic] + t[ic, ic] + 2.0) < 1e-10


def test_grim_reaper_graph_is_translator():
    g = grid.from_function(lambda X, Y: np.log(np.cos(X)),
                           -1.2, 1.2, -1.0, 1.0, 121, 101)
    G = geom.graph_geometry(g)
    defect = geom.translator_defect(G)
    assert np.nanmax(defect[1:-1, 1:-1]) < 2.5e-4  # O(h^2), h = 0.02
    cosx = np.cos(g.meshgrid()[0])
    assert np.nanmax(np.abs(G.N[..., 2] - cosx)[1:-1, 1:-1]) < 5e-4


def test_translator_defect_is_orientation_free():
    # the reference is the mirror surface -u: its upward geometry has the
    # flipped H and the negated flipped N_z, computed from its own jet
    g = grid.from_function(lambda X, Y: np.log(np.cos(X)) + 0.3 * Y,
                           -1.2, 1.2, -1.0, 1.0, 61, 51)
    G = geom.graph_geometry(g)
    up = geom.translator_defect(G)
    dn = geom.translator_defect(geom.flip_orientation(G))
    mirror = geom.graph_geometry(_mirror(g))
    inner = G.interior
    assert np.array_equal(up[inner], dn[inner])
    assert np.array_equal(dn[inner], np.abs(mirror.H - mirror.N[..., 2])[inner])


def _mirror(g):
    return grid.GridFunction(g.nx, g.ny, g.hx, g.hy, g.x0, g.y0, -g.values)


@settings(max_examples=20, deadline=None)
@given(a=st.floats(-0.8, 0.8), b=st.floats(0.4, 2.0))
def test_orientation_flip_negates_curvatures(a, b):
    # flipping the normal of u gives, bit for bit, the curvatures of -u seen
    # with its own upward normal
    g = grid.from_function(lambda X, Y: a * np.sin(b * X) * np.cos(Y),
                           -1, 1, -1, 1, 17, 17)
    G = geom.graph_geometry(g)
    flipped = geom.flip_orientation(G)
    mirror = geom.graph_geometry(_mirror(g))
    inner = G.interior
    for name in ("kappa1", "kappa2", "H"):
        assert np.array_equal(getattr(flipped, name)[inner],
                              getattr(mirror, name)[inner])


def _wiggle_jets(X, Y):
    p = 0.5 * np.cos(X) * np.cos(1.3 * Y)
    q = -0.65 * np.sin(X) * np.sin(1.3 * Y)
    r = -0.5 * np.sin(X) * np.cos(1.3 * Y)
    s = -0.65 * np.cos(X) * np.sin(1.3 * Y)
    t = -0.845 * np.sin(X) * np.cos(1.3 * Y)
    return p, q, r, s, t


def _wiggle_exact_curvatures(X, Y):
    # independent closed forms from the jet: H via the quasilinear trace,
    # K via the determinant, curvatures from the quadratic formula
    p, q, r, s, t = _wiggle_jets(X, Y)
    W2 = 1 + p * p + q * q
    H = ((1 + q * q) * r - 2 * p * q * s + (1 + p * p) * t) / W2 ** 1.5
    K = (r * t - s * s) / W2 ** 2
    disc = np.clip(H * H - 4 * K, 0, None)
    return H, (H + np.sqrt(disc)) / 2, (H - np.sqrt(disc)) / 2


def test_second_order_convergence_of_curvatures():
    errs = []
    for n in (41, 81, 161):
        g = grid.from_function(lambda X, Y: 0.5 * np.sin(X) * np.cos(1.3 * Y),
                               -1, 1, -1, 1, n, n)
        G = geom.graph_geometry(g)
        X, Y = g.meshgrid()
        He, k1e, k2e = _wiggle_exact_curvatures(X, Y)
        inner = G.interior
        errs.append((np.max(np.abs((G.H - He)[inner])),
                     np.max(np.abs((G.kappa1 - k1e)[inner])),
                     np.max(np.abs((G.kappa2 - k2e)[inner]))))
    for k in range(3):
        for lvl in range(2):
            ratio = errs[lvl][k] / errs[lvl + 1][k]
            assert 3.3 <= ratio <= 4.7, f"field {k}: ratio {ratio}"


def test_frame_orthonormality():
    g = grid.from_function(lambda X, Y: 0.5 * np.sin(X) * np.cos(1.3 * Y),
                           -1, 1, -1, 1, 81, 81)
    G = geom.graph_geometry(g)
    inner = G.interior

    def dots(a, b):
        return np.abs(np.einsum("ijk,ijk->ij", a, b))

    assert np.max(dots(G.v1, G.v2)[inner]) < 1e-10
    assert np.max(dots(G.v1, G.N)[inner]) < 1e-10
    assert np.max(np.abs(np.sqrt(dots(G.N, G.N)) - 1)[inner]) < 1e-12
    assert np.max(np.abs(np.sqrt(dots(G.v1, G.v1)) - 1)[inner]) < 1e-10


def test_drift_laplacian_basics():
    g = plane(21)
    G = geom.graph_geometry(g)
    X, _ = g.meshgrid()
    const = np.full_like(X, 3.7)
    out = geom.drift_laplacian(const, g, G)
    assert np.nanmax(np.abs(out)) < 1e-12
    out2 = geom.drift_laplacian(X ** 2, g, G)
    assert np.nanmax(np.abs(out2 - 2.0)) < 1e-10


def test_drift_laplacian_margin_guard():
    g = grid.from_function(lambda X, Y: np.zeros_like(X), 0, 1, 0, 1, 4, 6)
    G = geom.graph_geometry(g)
    with pytest.raises(MarginTooSmallError):
        geom.drift_laplacian(g.values, g, G)


def test_drift_of_H_on_bowl_grid():
    # drift Laplacian of the mean curvature equals -|A|^2 H on translators
    p = radial.shoot_bowl(2, 6.0, 1e-3)
    defects = []
    for n in (81, 161):
        gb = radial.profile_to_grid(p, -2, 2, -2, 2, n, n)
        Gb = geom.graph_geometry(gb)
        dH = geom.drift_laplacian(Gb.H, gb, Gb)
        defects.append(np.nanmax(np.abs(dH + Gb.normA2 * Gb.H)))
    assert defects[0] < 1e-3
    assert 3.0 <= defects[0] / defects[1] <= 5.0


def test_q_squared_tilted_reaper_and_umbilic_policy():
    from translab import catalog
    t = catalog.AnalyticTranslator(catalog.Kind.TILTED_GRIM_REAPER, math.pi / 6)
    g = catalog.sample_grid(t, 0.02, 0.9)
    G = geom.graph_geometry(g)
    q2, flags = geom.q_squared(G, g)
    assert not flags.any()
    assert np.nanmax(q2) < 1e-12

    # bowl tip is umbilic: flagged, NaN sentinel, never a fabricated value
    p = radial.shoot_bowl(2, 3.0, 1e-3)
    gb = radial.profile_to_grid(p, -1, 1, -1, 1, 41, 41)
    Gb = geom.graph_geometry(gb)
    q2b, fb = geom.q_squared(Gb, gb)
    center = fb[18:23, 18:23]
    assert center.any()
    assert np.isnan(q2b[fb]).all()


def test_key_identity_two_ways_on_bowl():
    # grad_{v1} kappa2 from grid differences vs the radial oracle d kappa_rot/ds
    p = radial.shoot_bowl(2, 6.0, 1e-3)
    s, _, k_rot, _, _ = radial.profile_curvatures(p)
    dkr = np.gradient(k_rot, s)
    diffs = []
    for n in (81, 161):
        gb = radial.profile_to_grid(p, 0.7, 2.7, 0.7, 2.7, n, n)
        Gb = geom.graph_geometry(gb)
        k2x = geom._dx(Gb.kappa2, gb.hx)
        k2y = geom._dy(Gb.kappa2, gb.hy)
        d1k2 = Gb.v1[..., 0] * k2x + Gb.v1[..., 1] * k2y
        X, Y = gb.meshgrid()
        R = np.hypot(X, Y)
        oracle = np.interp(R, p.r, dkr)
        rad_sign = np.sign(Gb.v1[..., 0] * X / R + Gb.v1[..., 1] * Y / R)
        d = np.abs(d1k2 - rad_sign * oracle)[2:-2, 2:-2]
        diffs.append((np.nanmax(d), gb.hx))
    for dmax, h in diffs:
        assert dmax <= 0.05 * h
    assert diffs[0][0] / diffs[1][0] > 1.5


# --- curves -------------------------------------------------------------------


def circle_points(r, n, center=(0.0, 0.0)):
    ang = 2 * math.pi * np.arange(n) / n
    return np.stack([center[0] + r * np.cos(ang),
                     center[1] + r * np.sin(ang)], axis=1)


def test_circle_curvature_length_area():
    c = geom.CurveState(points=circle_points(1.0, 256))
    kappa, normal, length, area, amax = geom.curve_geometry(c)
    assert np.max(np.abs(kappa - 1.0)) < 1e-3
    assert abs(length - 2 * math.pi) < 1e-3
    assert abs(area - math.pi) < 1e-3
    assert abs(amax - 1.0) < 1e-3
    norms = np.hypot(normal[:, 0], normal[:, 1])
    assert np.max(np.abs(norms - 1)) < 1e-12


def test_circle_radius_two():
    c = geom.CurveState(points=circle_points(2.0, 256))
    kappa, _, _, _, amax = geom.curve_geometry(c)
    assert np.max(np.abs(kappa - 0.5)) < 1e-3
    assert abs(amax - 0.5) < 1e-3


def test_ellipse_max_curvature():
    ang = 2 * math.pi * np.arange(512) / 512
    pts = np.stack([2 * np.cos(ang), np.sin(ang)], axis=1)
    c = geom.CurveState(points=pts)
    _, _, _, _, amax = geom.curve_geometry(c)
    assert abs(amax - 2.0) < 1e-2  # kappa_max = a / b^2


def test_degenerate_edge_detection():
    pts = circle_points(1.0, 16)
    pts[3] = pts[4]
    with pytest.raises(DegenerateEdgeError):
        geom.curve_geometry(geom.CurveState(points=pts))


def test_curve_needs_eight_points():
    with pytest.raises(ValueError):
        geom.CurveState(points=circle_points(1.0, 7))
