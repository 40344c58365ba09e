import dataclasses
import math

import numpy as np
import pytest

import oracles
from translab import analysis, geom, grid, radial
from translab.analysis import VariationSpec
from translab.errors import TranslabError


def reaper_strip(h=0.025, half=1.5, span=3.5):
    n = int(round(2 * span / h)) + 1
    m = int(round(2 * half / h)) + 1
    return oracles.from_function(lambda X, Y: np.log(np.cos(Y)),
                                 -span, span, -half, half, n, m)


def test_weighted_area_flat_and_constant():
    g = oracles.from_function(lambda X, Y: np.zeros_like(X), -1, 1, -1, 1, 41, 41)
    assert abs(analysis.weighted_area(g, (-0.5, 0.5, -0.5, 0.5)) - 1.0) < 1e-12
    gc = grid.GridFunction(41, 41, 0.05, 0.05, -1.0, -1.0,
                           np.full((41, 41), 0.7))
    val = analysis.weighted_area(gc, (-0.5, 0.5, -0.5, 0.5))
    assert abs(val - math.exp(-0.7)) < 1e-12


def test_weighted_area_grim_reaper_closed_form():
    # int_{-1}^{1} e^{-log cos x} sec x dx = 2 tan 1, constant in y
    g = oracles.from_function(lambda X, Y: np.log(np.cos(X)),
                              -1.3, 1.3, -0.5, 1.5, 261, 201)
    val = analysis.weighted_area(g, (-1.0, 1.0, 0.0, 1.0))
    assert abs(val - 2 * math.tan(1.0)) < 1e-4


def test_weighted_area_region_guard():
    g = oracles.from_function(lambda X, Y: np.zeros_like(X), -1, 1, -1, 1, 21, 21)
    with pytest.raises(TranslabError, match="quadrature region exceeds the grid"):
        analysis.weighted_area(g, (-2.0, 0.5, -0.5, 0.5))


def test_first_variation_vanishes_on_translator():
    vals = []
    for h in (0.05, 0.025):
        g = reaper_strip(h)
        spec = VariationSpec(center=(0, 0), radius=1.2)
        vals.append(abs(analysis.first_variation_check(g, spec)))
    assert vals[1] < 1e-3
    assert 3.0 <= vals[0] / vals[1] <= 5.0  # O(h^2)


def test_first_variation_negative_control():
    g = oracles.from_function(lambda X, Y: np.zeros_like(X), -4, 4, -4, 4, 161, 161)
    spec = VariationSpec(center=(0, 0), radius=1.5)
    d = analysis.first_variation_check(g, spec)
    # d A = -int(phi) for the flat plane; the cos^2 bump integrates to rx*ry
    assert abs(d + 2.25) < 1e-6
    assert abs(d) >= 1e-3


def test_first_variation_epsilon_order(monkeypatch):
    # the Richardson estimate converges at O(eps^4): measured 15.63 (14.69
    # at eps = 0.4, 0.2, 0.1 and 15.90 at 0.1, 0.05, 0.025); the plain
    # central difference gives 3.98
    g = reaper_strip(0.025)
    spec = VariationSpec(center=(0, 0), radius=1.2)
    ds = []
    for eps in (0.2, 0.1, 0.05):
        monkeypatch.setattr(analysis, "EPSILON", eps)
        ds.append(analysis.first_variation_check(g, spec))
    ratio = (ds[0] - ds[1]) / (ds[1] - ds[2])
    assert 12.0 <= ratio <= 20.0


def test_first_variation_guards():
    g = reaper_strip(0.05)
    with pytest.raises(ValueError):
        analysis.first_variation_check(
            g, VariationSpec(center=(3.4, 0), radius=1.0))
    # exp(-u) overflows where x < 0
    steep = oracles.from_function(lambda X, Y: 1e150 * X, -2, 2, -2, 2, 41, 41)
    with pytest.raises(TranslabError, match="weighted area overflowed"):
        analysis.first_variation_check(
            steep, VariationSpec(center=(0, 0), radius=1.2))


@pytest.mark.parametrize("kwargs, field", [
    (dict(center=(math.nan, 0.0)), "center"),
    (dict(center=(0.0, math.inf)), "center"),
    (dict(radius=math.nan), "radius"),
    (dict(radius=math.inf), "radius"),
    (dict(radius=0.0), "radius"),
])
def test_variation_spec_must_be_finite(kwargs, field):
    # NaN used to pass the <= 0 checks and fail later on the perturbed grid
    with pytest.raises(ValueError, match=field):
        VariationSpec(**kwargs)


def test_bump_narrower_than_a_cell_is_computed_without_warning():
    # |X| / 5e-324 overflowed, with a RuntimeWarning, before clipping to 1
    g = oracles.from_function(lambda X, Y: np.zeros_like(X), -1, 1, -1, 1, 21, 21)
    phi = VariationSpec(radius=5e-324).profile(g)
    assert phi[10, 10] == 1.0 and np.count_nonzero(phi) == 1


def test_stability_operator_basics():
    g = oracles.from_function(lambda X, Y: np.zeros_like(X), -1, 1, -1, 1, 21, 21)
    G = geom.graph_geometry(g)
    zero = np.zeros_like(g.values)
    L_zero = geom.drift_laplacian(zero, G) + G.normA2 * zero
    assert np.nanmax(np.abs(L_zero)) == 0.0
    # plane: e3.N = 1, |A|^2 = 0, so L(e3.N) = 0
    assert analysis.jacobi_field_defect(g) < 1e-12


def test_jacobi_field_on_bowl_refines_at_second_order():
    p = radial.shoot_bowl(2, 6.0, 1e-3)
    defs = []
    for n in (81, 161):
        gb = radial.profile_to_grid(p, -2, 2, -2, 2, n, n)
        defs.append(analysis.jacobi_field_defect(gb))
    assert defs[1] < 1e-3
    assert 3.0 <= defs[0] / defs[1] <= 5.0


def gradH_identity_defect(u):
    """max |grad_M H - A(e3^T, .)| over the valid interior, with A assembled
    from the principal frame: a closed-form check of surface_gradient."""
    G = geom.graph_geometry(u)
    gradH = geom.surface_gradient(G.H, G)
    e3t = -G.N[..., 2, None] * G.N
    e3t[..., 2] += 1.0
    c1 = np.einsum("ijk,ijk->ij", e3t, G.v1)
    c2 = np.einsum("ijk,ijk->ij", e3t, G.v2)
    Ae3 = (G.kappa1 * c1)[..., None] * G.v1 + (G.kappa2 * c2)[..., None] * G.v2
    diff = gradH - Ae3
    mag = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    return float(np.max(mag[np.isfinite(mag)]))


def test_gradH_identity():
    g = oracles.from_function(lambda X, Y: np.zeros_like(X), -1, 1, -1, 1, 21, 21)
    assert gradH_identity_defect(g) < 1e-12  # both sides vanish

    p = radial.shoot_bowl(2, 6.0, 1e-3)
    defs = []
    for n in (81, 161):
        gb = radial.profile_to_grid(p, -2, 2, -2, 2, n, n)
        defs.append(gradH_identity_defect(gb))
    assert defs[0] / defs[1] > 1.7  # at least halves when h halves


def test_spruck_xiao_on_tilted_reaper():
    from translab import catalog
    g = catalog.sample_grid(math.pi / 6, 0.02)
    rep = analysis.spruck_xiao_report(g)
    assert rep.orientationFlipped  # downward family seen with the upward normal
    h = max(g.hx, g.hy)
    # kappa2 = 0 identically: H/kappa1 = 1 up to discretization noise
    assert abs(rep.rangeHoverK1[0] - 1.0) < 10 * h
    assert abs(rep.rangeHoverK1[1] - 1.0) < 10 * h
    assert rep.fracInequalityHolds >= 0.99
    assert np.nanmax(np.abs(rep.lhsInequality[rep.mask])) < 10 * h


def test_spruck_xiao_flags_non_translator():
    # sphere cap: drift identity for H fails by 4/R^3
    R = 3.0
    g = oracles.from_function(
        lambda X, Y: np.sqrt(R * R - X * X - Y * Y) - R, -1, 1, -1, 1, 81, 81)
    rep = analysis.spruck_xiao_report(g)
    assert rep.maxDefectDriftH > 0.1


def test_spruck_xiao_empty_mask_on_plane():
    g = oracles.from_function(lambda X, Y: np.zeros_like(X), -1, 1, -1, 1, 21, 21)
    with pytest.raises(TranslabError, match="all nodes umbilic or outside the margin"):
        analysis.spruck_xiao_report(g)


def test_each_analysis_differences_the_heights_once(monkeypatch):
    # the operators read the slopes of the one GeometryField they are given
    calls, jet = [], geom.interior_jet

    def counting(*args):
        calls.append(1)
        return jet(*args)

    monkeypatch.setattr(geom, "interior_jet", counting)
    monkeypatch.setattr(analysis, "interior_jet", counting)
    g = radial.profile_to_grid(radial.shoot_bowl(2, 6.0, 1e-3),
                               0.7, 2.7, 0.7, 2.7, 41, 41)
    analysis.spruck_xiao_report(g)
    assert len(calls) == 1
    analysis.jacobi_field_defect(g)
    assert len(calls) == 2
    # one jet for W; the four perturbed grids are not differenced
    analysis.first_variation_check(g, VariationSpec(center=(1.7, 1.7),
                                                    radius=0.5))
    assert len(calls) == 3


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_spruck_xiao_report_equals_the_flipped_geometry_report(monkeypatch, sign):
    # the report takes -kappa2, -kappa1 when H < 0, and Q^2 and the umbilic
    # mask of the upward geometry: the same bits as Q^2 of the whole flipped
    # geometry, on the bowl (H < 0, flipped) and on its mirror (H > 0)
    p = radial.shoot_bowl(2, 6.0, 1e-3)
    bowl = radial.profile_to_grid(p, 0.7, 2.7, 0.7, 2.7, 41, 41)
    g = grid.GridFunction(41, 41, bowl.hx, bowl.hy, bowl.x0, bowl.y0,
                          sign * bowl.values)
    got = analysis.spruck_xiao_report(g)
    assert got.orientationFlipped is (sign > 0)
    flip = oracles.flip_orientation if got.orientationFlipped else (lambda G: G)
    monkeypatch.setattr(analysis, "q_squared",
                        lambda G: geom.q_squared(flip(G)))
    ref = analysis.spruck_xiao_report(g)
    for f in dataclasses.fields(ref):
        a, b = getattr(got, f.name), getattr(ref, f.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b, equal_nan=True), f.name
        else:
            assert a == b, f.name
