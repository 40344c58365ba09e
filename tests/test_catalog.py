import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from translab import catalog, grid
from translab.errors import TranslabError


def test_grim_reaper_jet_at_origin():
    u, (ux, uy), (uxx, uxy, uyy) = catalog.evaluate(0.0, 0.0, 0.0)
    assert u == 0.0 and ux == 0.0 and uy == 0.0
    assert uxx == -1.0 and uxy == 0.0 and uyy == 0.0


def test_tilted_values_match_closed_form():
    u, (ux, uy), _ = catalog.evaluate(math.pi / 6, 0.0, 1.0)
    assert abs(u - (-math.tan(math.pi / 6))) < 1e-15
    assert abs(uy - (-math.tan(math.pi / 6))) < 1e-15
    assert abs(catalog.half_width(math.pi / 4) - 2.221441469079183) < 1e-15


def test_zero_jet_residual_is_one():
    z = np.zeros(())
    assert catalog.pde_residual(z, (z, z), (z, z, z)) == 1.0


@pytest.mark.parametrize("theta", [0.0, math.pi / 6, math.pi / 4, 0.4])
def test_family_residual_vanishes(theta):
    xw = catalog.half_width(theta)
    xs = np.linspace(-0.9 * xw, 0.9 * xw, 100)
    ys = np.linspace(-5.0, 5.0, 100)
    u, Du, D2u = catalog.evaluate(theta, xs, ys)
    res = catalog.pde_residual(u, Du, D2u)
    assert np.max(np.abs(res)) < 1e-12


def test_domain_guard():
    with pytest.raises(TranslabError, match="point outside the open strip"):
        catalog.evaluate(0.0, math.pi / 2, 0.0)
    with pytest.raises(TranslabError, match="point outside the open strip"):
        catalog.evaluate(0.0, math.pi / 2 - 1e-12, 0.0)  # guard band
    catalog.evaluate(0.0, math.pi / 2 - 1e-6, 0.0)  # inside


@pytest.mark.parametrize("theta", [-1e-3, math.pi / 2, 2.0, math.nan])
def test_tilt_outside_the_family_is_refused(theta):
    for call in (lambda: catalog.half_width(theta),
                 lambda: catalog.evaluate(theta, 0.0, 0.0),
                 lambda: catalog.sample_grid(theta, 0.05)):
        with pytest.raises(ValueError, match="theta must lie in"):
            call()


def test_vertical_plane_kind():
    # the theta -> pi/2 limit is not a graph; plane_report stands for it
    with pytest.raises(ValueError):
        catalog.half_width(math.pi / 2)
    rep = catalog.plane_report()
    assert rep.maxAbs == 0.0 and not rep.is_graph


@settings(max_examples=30, deadline=None)
@given(c=st.floats(-1e6, 1e6, allow_nan=False))
def test_residual_invariant_under_height_shift(c):
    # no zeroth-order dependence on u: jets fix the residual exactly
    ux, uy = 0.3, -0.7
    uxx, uxy, uyy = -0.9, 0.2, 0.4
    r0 = catalog.pde_residual(0.0, (ux, uy), (uxx, uxy, uyy))
    r1 = catalog.pde_residual(c, (ux, uy), (uxx, uxy, uyy))
    assert r0 == r1


def test_tilt_structure_requires_linear_term():
    # sec^2(th) log cos(x cos th) alone is not a translator; the traveling
    # term -tan(th) y restores the exact cancellation
    theta = 0.5
    sec = 1.0 / math.cos(theta)
    x = 0.3
    u = sec ** 2 * math.log(math.cos(x * math.cos(theta)))
    ux = -sec * math.tan(x * math.cos(theta))
    uxx = -1.0 / math.cos(x * math.cos(theta)) ** 2
    without = catalog.pde_residual(u, (ux, 0.0), (uxx, 0.0, 0.0))
    with_term = catalog.pde_residual(u, (ux, -math.tan(theta)), (uxx, 0.0, 0.0))
    assert abs(without) > 1e-2
    assert abs(with_term) < 1e-13


def test_residual_report_zero_height():
    g = grid.from_function(lambda X, Y: np.zeros_like(X), 0, 1, 0, 1, 11, 11)
    rep = catalog.residual_report(g)
    inner = rep.perNode[1:-1, 1:-1]
    assert np.all(inner == 1.0)
    assert rep.maxAbs == 1.0
    assert abs(rep.l2 - math.sqrt(inner.size)) < 1e-12


def test_residual_report_grim_reaper_truncation():
    g = grid.from_function(lambda X, Y: np.log(np.cos(X)),
                           -1.2, 1.2, -1.2, 1.2, 241, 241)
    rep = catalog.residual_report(g)
    assert rep.maxAbs < 1e-3  # O(h^2) at h = 0.01


def test_residual_report_convergence_tilted():
    hw = catalog.half_width(math.pi / 4)
    maxima = []
    for h in (0.02, 0.01, 0.005):
        g = catalog.sample_grid(math.pi / 4, h)
        rep = catalog.residual_report(g)
        X, _ = g.meshgrid()
        # fixed subregion: the first interior node drifts with h, and next to
        # the strip edge the truncation constant varies too fast in its wake
        sel = (np.abs(X) <= 0.85 * hw) & np.isfinite(rep.perNode)
        maxima.append(np.max(np.abs(rep.perNode[sel])))
    assert 3.0 <= maxima[0] / maxima[1] <= 5.0
    assert 3.0 <= maxima[1] / maxima[2] <= 5.0


def test_theta_to_zero_continuity_on_profile():
    xs = np.linspace(-1.4, 1.4, 29)
    u0, _, _ = catalog.evaluate(0.0, xs, 0 * xs)
    u1, _, _ = catalog.evaluate(1e-4, xs, 0 * xs)
    assert np.max(np.abs(u1 - u0)) < 1e-6


def test_sample_grid_geometry():
    g = catalog.sample_grid(0.0, 0.05)
    assert g.nx >= 5 and g.ny >= 5
    assert abs(g.xs[0] + 0.9 * catalog.half_width(0.0)) < 1e-12


@pytest.mark.parametrize("h", [-5.0, 0.0, math.nan, math.inf, -math.inf])
def test_sample_grid_refuses_a_step_that_is_not_positive(h):
    # -5 used to clamp to a 5x5 grid, NaN to fail converting the node count
    with pytest.raises(ValueError, match="finite and positive"):
        catalog.sample_grid(0.3, h)


@pytest.mark.parametrize("h", [1e-7, 5e-324])
def test_sample_grid_refuses_more_nodes_than_the_bound(h):
    # 1e-7 used to fail allocating a 28,274,335^2 meshgrid, and 5e-324 to
    # overflow converting the node count
    with pytest.raises(ValueError, match=rf"step h = {re.escape(repr(h))} needs more"):
        catalog.sample_grid(0.0, h)


def test_sample_grid_node_bound_is_exact(monkeypatch):
    two_w = 2 * catalog.HALF_WIDTH_FRAC * catalog.half_width(0.0)
    side = math.isqrt(catalog._MAX_NODES)
    # one node per side past the bound, refused before anything is allocated
    with pytest.raises(ValueError, match="grid nodes"):
        catalog.sample_grid(0.0, two_w / side)
    monkeypatch.setattr(catalog, "_MAX_NODES", 30 * 30)
    assert catalog.sample_grid(0.0, two_w / 29).nx == 30
    with pytest.raises(ValueError, match="needs more than 900 grid nodes"):
        catalog.sample_grid(0.0, two_w / 30)


def test_residual_report_memory_is_bounded():
    # heights only, the residual on the interior jet, and fsum fed one row
    # list at a time; the grid itself is 0.86 MB
    tracemalloc.start()
    try:
        rep = catalog.residual_report(catalog.sample_grid(math.pi / 6, 0.01))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(rep.l2)
    assert peak < 8e6
